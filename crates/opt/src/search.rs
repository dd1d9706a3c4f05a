//! Tabu-search engine over mapping and policy-assignment moves (the MXR
//! optimization of \[13\], §6).
//!
//! A candidate state is a base mapping plus one policy per process; replicas
//! are placed by [`CopyMapping::from_base`] and the state is evaluated with
//! the root-schedule estimator. Moves:
//!
//! * **remap** — move one (non-fixed) process to another feasible node;
//! * **repolicy** — switch one process among its candidate policies
//!   (re-execution, replication, replication+checkpointed original).
//!
//! Recently touched processes are tabu for `tenure` iterations unless a move
//! beats the global best (aspiration).
//!
//! One search step allocates nothing in steady state. The move vocabulary
//! (candidate nodes and policies per process) is computed once per search
//! ([`MoveVocabulary`]); neighbors are built in a reusable proposal pool by
//! resetting a slot to the current state (`clone_from`, which shares every
//! policy), applying the move in place and re-deriving the slot's copy
//! placement in place ([`CopyMapping::rederive`]); the pool is scored as
//! one slice by [`SystemEvaluator::evaluate_batch_into`]; and the winner is
//! swapped into the current state, so only a displaced best is copied.

use crate::OptError;
use ftes_ft::{CopyPlan, Policy, PolicyAssignment};
use ftes_ftcpg::CopyMapping;
use ftes_model::{Application, Architecture, Mapping, NodeId, ProcessId, Time};
use ftes_sched::{BatchCandidate, Estimate, SchedError, SystemEvaluator};
use ftes_tdma::Platform;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Tunables of the tabu search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Total iterations.
    pub iterations: usize,
    /// Tabu tenure (iterations a touched process stays tabu).
    pub tenure: usize,
    /// Number of candidate moves sampled per iteration.
    pub neighborhood: usize,
    /// Cap on checkpoint counts considered by candidate policies.
    pub max_checkpoints: u32,
    /// Seed for the move sampler (deterministic searches).
    pub seed: u64,
    /// Estimator calibration factor in milli-units (1000 = trust the
    /// estimator as-is; values above 1000 inflate estimates before judging
    /// them against the deadline). The certify-and-repair loop measures the
    /// factor as the worst observed `exact / estimate` ratio and re-searches
    /// with it, so acceptance stops preferring configurations whose
    /// estimated worst case only *looks* schedulable. At the default 1000
    /// the search behaves exactly as the uncalibrated engine.
    pub calibration_milli: u64,
}

impl Default for SearchConfig {
    fn default() -> Self {
        SearchConfig {
            iterations: 120,
            tenure: 8,
            neighborhood: 24,
            max_checkpoints: 16,
            seed: 1,
            calibration_milli: 1000,
        }
    }
}

impl SearchConfig {
    /// `true` when the estimated worst case, inflated by the calibration
    /// factor, exceeds the deadline — the acceptance penalty flag of the
    /// calibrated objective. Always `false` at the default factor of 1000,
    /// so uncalibrated searches are bit-for-bit unchanged.
    pub(crate) fn calibrated_over_deadline(&self, estimate: &Estimate, deadline: Time) -> bool {
        self.calibration_milli > 1000
            && (estimate.worst_case_length.units() as i128) * (self.calibration_milli as i128)
                > (deadline.units() as i128) * 1000
    }

    /// The calibrated search objective: states predicted unschedulable
    /// under the calibration factor sort after every predicted-schedulable
    /// state; within a class the usual (worst-case, fault-free) order
    /// applies.
    pub(crate) fn calibrated_objective(
        &self,
        candidate: &Synthesized,
        deadline: Time,
    ) -> (bool, Time, Time) {
        let (worst, fault_free) = candidate.objective();
        (self.calibrated_over_deadline(&candidate.estimate, deadline), worst, fault_free)
    }
}

/// A synthesized configuration: mapping, policies, derived copy placement
/// and its estimated worst-case schedule length.
#[derive(Debug)]
pub struct Synthesized {
    /// Base process mapping `M`.
    pub mapping: Mapping,
    /// Fault-tolerance policy assignment `F`.
    pub policies: PolicyAssignment,
    /// Copy placement (original + replicas).
    pub copies: CopyMapping,
    /// Estimated fault-free and worst-case schedule lengths.
    pub estimate: Estimate,
}

impl Clone for Synthesized {
    fn clone(&self) -> Self {
        Synthesized {
            mapping: self.mapping.clone(),
            policies: self.policies.clone(),
            copies: self.copies.clone(),
            estimate: self.estimate,
        }
    }

    /// Field-wise, reusing every buffer of `self`.
    fn clone_from(&mut self, source: &Self) {
        self.mapping.clone_from(&source.mapping);
        self.policies.clone_from(&source.policies);
        self.copies.clone_from(&source.copies);
        self.estimate = source.estimate;
    }
}

impl Synthesized {
    /// Evaluates a (mapping, policies) state with a one-shot evaluator.
    ///
    /// Hot paths hold a [`SystemEvaluator`] and use
    /// [`Synthesized::evaluate_with`] instead, amortizing the kernel's
    /// construction across a whole search.
    ///
    /// # Errors
    ///
    /// Propagates estimator and copy-placement errors.
    pub fn evaluate(
        app: &Application,
        platform: &Platform,
        mapping: Mapping,
        policies: PolicyAssignment,
        k: u32,
    ) -> Result<Self, OptError> {
        let mut evaluator = SystemEvaluator::new(app, platform, k);
        Synthesized::evaluate_with(&mut evaluator, mapping, policies)
    }

    /// Evaluates a (mapping, policies) state through a reusable evaluator
    /// kernel, anchoring it as the kernel's delta base.
    ///
    /// # Errors
    ///
    /// Propagates estimator and copy-placement errors.
    pub fn evaluate_with(
        evaluator: &mut SystemEvaluator,
        mapping: Mapping,
        policies: PolicyAssignment,
    ) -> Result<Self, OptError> {
        let copies = CopyMapping::from_base(
            evaluator.app(),
            evaluator.platform().architecture(),
            &mapping,
            &policies,
        )?;
        let estimate = evaluator.evaluate(&copies, &policies)?;
        Ok(Synthesized { mapping, policies, copies, estimate })
    }

    /// Evaluates a *neighbor* of the evaluator's anchored base state via
    /// the delta path (falling back to a full evaluation when the dirty
    /// region cascades — never to a wrong result).
    ///
    /// # Errors
    ///
    /// Propagates estimator and copy-placement errors.
    pub fn evaluate_neighbor(
        evaluator: &mut SystemEvaluator,
        mapping: Mapping,
        policies: PolicyAssignment,
    ) -> Result<Self, OptError> {
        let copies = CopyMapping::from_base(
            evaluator.app(),
            evaluator.platform().architecture(),
            &mapping,
            &policies,
        )?;
        let estimate = evaluator.delta_evaluate(&copies, &policies)?;
        Ok(Synthesized { mapping, policies, copies, estimate })
    }

    /// The optimization objective: worst-case length, fault-free length as
    /// tie-break.
    pub fn objective(&self) -> (Time, Time) {
        (self.estimate.worst_case_length, self.estimate.fault_free_length)
    }
}

/// Which policies a move may assign (strategy restriction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyMoves {
    /// Policies are frozen; only remapping moves are explored.
    None,
    /// The full candidate set: re-execution, replication, combined.
    Full,
}

/// Candidate policies of one process under fault budget `k`.
pub fn candidate_policies(
    app: &Application,
    p: ProcessId,
    k: u32,
    max_checkpoints: u32,
) -> Vec<Policy> {
    let proc = app.process(p);
    let mut out = vec![Policy::reexecution(k)];
    if k == 0 {
        return out;
    }
    // Checkpointed single copy with the local optimum X (a cheap, good
    // default; the global checkpoint pass refines it).
    let min_wcet = proc
        .candidate_nodes()
        .filter_map(|n| proc.wcet_on(n))
        .min()
        .expect("validated application");
    if let Ok(scheme) = ftes_ft::RecoveryScheme::for_process(proc, min_wcet) {
        let x = scheme.optimal_checkpoints_local(k, max_checkpoints);
        if x > 0 {
            out.push(Policy::checkpointing(k, x));
        }
    }
    // Pure replication (Fig. 4b). Replicas may share nodes when the
    // process's candidate set is small (see CopyMapping).
    out.push(Policy::replication(k));
    // Combined (Fig. 4c): q replicas, the original absorbs the remaining
    // k − q faults by re-execution.
    for q in 1..k {
        let mut copies = vec![CopyPlan::reexecuted(k - q)];
        copies.extend(std::iter::repeat_n(CopyPlan::plain(), q as usize));
        out.push(Policy::from_copies(copies).expect("non-empty copy list"));
    }
    out
}

/// One sampled transformation of a candidate `(mapping, policies)` state —
/// the neighborhood vocabulary shared by every search engine (tabu,
/// annealing, greedy descent and the parallel portfolio workers of
/// `ftes-explore`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CandidateMove {
    /// Move one process to another feasible node.
    Remap {
        /// The process being remapped.
        process: ProcessId,
        /// The target node.
        to: NodeId,
    },
    /// Switch one process to another candidate policy.
    Repolicy {
        /// The process whose policy changes.
        process: ProcessId,
        /// The new fault-tolerance policy.
        policy: Policy,
    },
}

impl CandidateMove {
    /// The process the move touches (the unit of tabu bookkeeping).
    pub fn process(&self) -> ProcessId {
        match self {
            CandidateMove::Remap { process, .. } | CandidateMove::Repolicy { process, .. } => {
                *process
            }
        }
    }

    /// Applies the move to a `(mapping, policies)` state in place. Returns
    /// `false`, leaving the state unchanged, when the move is infeasible
    /// (e.g. the remap violates a mapping restriction).
    pub fn apply_to(
        &self,
        app: &Application,
        arch: &Architecture,
        mapping: &mut Mapping,
        policies: &mut PolicyAssignment,
    ) -> bool {
        match self {
            CandidateMove::Remap { process, to } => {
                mapping.move_process(app, arch, *process, *to).is_ok()
            }
            CandidateMove::Repolicy { process, policy } => {
                policies.set(*process, policy.clone());
                true
            }
        }
    }
}

/// The move vocabulary of one search, computed once: every process's
/// remap targets and candidate policies.
///
/// [`MoveVocabulary::sample`] draws exactly the move [`sample_move`] draws
/// from the same RNG state — the same RNG calls in the same order — but
/// reads the precomputed lists instead of rebuilding them, so a draw
/// allocates nothing.
#[derive(Debug, Clone)]
pub struct MoveVocabulary {
    policy_moves: PolicyMoves,
    /// Remap targets, row after row: a process's candidate nodes, or no
    /// row entries for a designer-fixed process.
    nodes: Vec<NodeId>,
    /// Row `p` of `nodes` is `nodes[node_off[p]..node_off[p + 1]]`.
    node_off: Vec<usize>,
    /// [`candidate_policies`] of every process, row after row (empty under
    /// [`PolicyMoves::None`]).
    policies: Vec<Policy>,
    /// Row offsets into `policies`.
    policy_off: Vec<usize>,
}

impl MoveVocabulary {
    /// Precomputes the vocabulary of searches over `app` under fault
    /// budget `k`.
    pub fn new(app: &Application, k: u32, policy_moves: PolicyMoves, max_checkpoints: u32) -> Self {
        let mut vocabulary = MoveVocabulary {
            policy_moves,
            nodes: Vec::new(),
            node_off: vec![0],
            policies: Vec::new(),
            policy_off: vec![0],
        };
        for (pid, proc) in app.processes() {
            if proc.fixed_node().is_none() {
                vocabulary.nodes.extend(proc.candidate_nodes());
            }
            vocabulary.node_off.push(vocabulary.nodes.len());
            if policy_moves == PolicyMoves::Full {
                vocabulary.policies.extend(candidate_policies(app, pid, k, max_checkpoints));
            }
            vocabulary.policy_off.push(vocabulary.policies.len());
        }
        vocabulary
    }

    /// Samples one candidate move from the neighborhood of the given
    /// state, exactly like [`sample_move`] with this vocabulary's
    /// application, `k`, policy moves and checkpoint cap.
    pub fn sample(
        &self,
        mapping: &Mapping,
        policies: &PolicyAssignment,
        rng: &mut ChaCha8Rng,
    ) -> Option<CandidateMove> {
        let p = rng.gen_range(0..self.node_off.len() - 1);
        let process = ProcessId::new(p);
        let try_policy = self.policy_moves == PolicyMoves::Full && rng.gen_bool(0.5);
        if try_policy {
            let cands = &self.policies[self.policy_off[p]..self.policy_off[p + 1]];
            let policy = &cands[rng.gen_range(0..cands.len())];
            if policies.policy(process) == policy {
                return None;
            }
            Some(CandidateMove::Repolicy { process, policy: policy.clone() })
        } else {
            // Fixed processes have an empty row, single-node processes a
            // one-entry row: neither draws a target.
            let nodes = &self.nodes[self.node_off[p]..self.node_off[p + 1]];
            if nodes.len() < 2 {
                return None;
            }
            let to = nodes[rng.gen_range(0..nodes.len())];
            if to == mapping.node_of(process) {
                return None;
            }
            Some(CandidateMove::Remap { process, to })
        }
    }
}

/// Samples one candidate move (remap or repolicy) from the neighborhood of
/// the given state **without evaluating it**; returns `None` for degenerate
/// samples (no-op moves, fixed or single-node processes).
///
/// The one-shot form of [`MoveVocabulary::sample`]: it rebuilds the
/// process's candidate lists on every call, so searches draw from a
/// vocabulary instead; this stays the reference the vocabulary is tested
/// against.
pub fn sample_move(
    app: &Application,
    mapping: &Mapping,
    policies: &PolicyAssignment,
    k: u32,
    policy_moves: PolicyMoves,
    config: SearchConfig,
    rng: &mut ChaCha8Rng,
) -> Option<CandidateMove> {
    let n = app.process_count();
    let p = ProcessId::new(rng.gen_range(0..n));
    let proc = app.process(p);
    let try_policy = policy_moves == PolicyMoves::Full && rng.gen_bool(0.5);
    if try_policy {
        let cands = candidate_policies(app, p, k, config.max_checkpoints);
        let pol = cands[rng.gen_range(0..cands.len())].clone();
        if *policies.policy(p) == pol {
            return None;
        }
        Some(CandidateMove::Repolicy { process: p, policy: pol })
    } else {
        if proc.fixed_node().is_some() {
            return None;
        }
        let nodes: Vec<NodeId> = proc.candidate_nodes().collect();
        if nodes.len() < 2 {
            return None;
        }
        let target = nodes[rng.gen_range(0..nodes.len())];
        if target == mapping.node_of(p) {
            return None;
        }
        Some(CandidateMove::Remap { process: p, to: target })
    }
}

/// Applies a move to a `(mapping, policies)` state, returning the successor
/// state or `None` when the move is infeasible (e.g. the remap violates a
/// mapping restriction).
pub fn apply_move(
    app: &Application,
    arch: &Architecture,
    mapping: &Mapping,
    policies: &PolicyAssignment,
    mv: &CandidateMove,
) -> Option<(Mapping, PolicyAssignment)> {
    let (mut mapping, mut policies) = (mapping.clone(), policies.clone());
    mv.apply_to(app, arch, &mut mapping, &mut policies).then_some((mapping, policies))
}

/// One sampled-and-applied neighbor of a search's current state, held in a
/// [`ProposalPool`] slot.
pub(crate) struct Proposal {
    /// The process the originating move touches (tabu bookkeeping unit).
    pub(crate) process: ProcessId,
    /// The neighbor; its estimate is valid once the pool has scored it.
    pub(crate) state: Synthesized,
}

impl BatchCandidate for Proposal {
    fn copies(&self) -> &CopyMapping {
        &self.state.copies
    }

    fn policies(&self) -> &PolicyAssignment {
        &self.state.policies
    }
}

/// The neighborhood of a search, in slots reused across iterations — the
/// sampling and scoring shared by the tabu search and the alternative
/// engines in [`crate::greedy_descent`] / [`crate::simulated_annealing`].
pub(crate) struct ProposalPool {
    vocabulary: MoveVocabulary,
    neighborhood: usize,
    /// Slot storage; the first `len` slots hold the current neighborhood.
    slots: Vec<Proposal>,
    len: usize,
    /// Scores of the first `len` slots, in slot order.
    scores: Vec<Result<Estimate, SchedError>>,
}

impl ProposalPool {
    /// An empty pool for searches of `config.neighborhood` moves over the
    /// evaluator's problem instance.
    pub(crate) fn new(
        evaluator: &SystemEvaluator,
        policy_moves: PolicyMoves,
        config: SearchConfig,
    ) -> Self {
        let vocabulary = MoveVocabulary::new(
            evaluator.app(),
            evaluator.k(),
            policy_moves,
            config.max_checkpoints,
        );
        ProposalPool {
            vocabulary,
            neighborhood: config.neighborhood,
            slots: Vec::with_capacity(config.neighborhood),
            len: 0,
            scores: Vec::with_capacity(config.neighborhood),
        }
    }

    /// Samples a whole neighborhood of `current` — up to `neighborhood`
    /// candidate moves — then scores it through one batch pass (the
    /// kernel's base is the search's current state, so most candidates
    /// re-schedule only a shared-prefix suffix).
    ///
    /// Degenerate samples (no-op moves, fixed or single-node processes),
    /// infeasible applications and infeasible copy placements are skipped,
    /// and the RNG stream is consumed exactly as the sequential proposal
    /// loop did (scoring never draws from it). Candidates whose evaluation
    /// fails (e.g. a policy the bus cannot carry) are left unscored:
    /// [`ProposalPool::scored`] skips them.
    pub(crate) fn sample_neighborhood(
        &mut self,
        evaluator: &mut SystemEvaluator,
        current: &Synthesized,
        rng: &mut ChaCha8Rng,
    ) {
        let app = evaluator.app();
        let arch = evaluator.platform().architecture();
        self.len = 0;
        for _ in 0..self.neighborhood {
            let Some(mv) = self.vocabulary.sample(&current.mapping, &current.policies, rng) else {
                continue;
            };
            if self.len == self.slots.len() {
                self.slots.push(Proposal { process: mv.process(), state: current.clone() });
            }
            let slot = &mut self.slots[self.len];
            slot.process = mv.process();
            slot.state.mapping.clone_from(&current.mapping);
            slot.state.policies.clone_from(&current.policies);
            if !mv.apply_to(app, arch, &mut slot.state.mapping, &mut slot.state.policies) {
                continue;
            }
            // Infeasible copy placements are skipped rather than surfaced:
            // the move is simply not available.
            if slot
                .state
                .copies
                .rederive(app, arch, &slot.state.mapping, &slot.state.policies)
                .is_err()
            {
                continue;
            }
            self.len += 1;
        }
        evaluator.evaluate_batch_into(&self.slots[..self.len], &mut self.scores);
        for (slot, score) in self.slots.iter_mut().zip(&self.scores) {
            if let Ok(estimate) = score {
                slot.state.estimate = *estimate;
            }
        }
    }

    /// Number of proposals in the current neighborhood (scored or not).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Proposal `i` of the current neighborhood, in sample order, if its
    /// evaluation succeeded.
    pub(crate) fn scored(&self, i: usize) -> Option<&Proposal> {
        self.scores[i].is_ok().then(|| &self.slots[i])
    }

    /// Makes proposal `i` the search's current state. The slot receives the
    /// previous current state, which the next sample overwrites.
    pub(crate) fn swap_into(&mut self, i: usize, current: &mut Synthesized) {
        std::mem::swap(&mut self.slots[i].state, current);
    }
}

/// Runs a tabu search from an initial state, minimizing the estimated
/// worst-case schedule length.
///
/// # Errors
///
/// Propagates evaluation errors; the initial state must be feasible.
pub fn tabu_search(
    app: &Application,
    platform: &Platform,
    k: u32,
    initial: Synthesized,
    policy_moves: PolicyMoves,
    config: SearchConfig,
) -> Result<Synthesized, OptError> {
    Ok(tabu_search_traced(app, platform, k, initial, policy_moves, config)?.0)
}

/// [`tabu_search`] over a caller-provided evaluator kernel (one evaluator
/// per search; the flow layer shares it across synthesis phases).
///
/// # Errors
///
/// Propagates evaluation errors; the initial state must be feasible.
pub fn tabu_search_with(
    evaluator: &mut SystemEvaluator,
    initial: Synthesized,
    policy_moves: PolicyMoves,
    config: SearchConfig,
) -> Result<Synthesized, OptError> {
    Ok(tabu_search_traced_with(evaluator, initial, policy_moves, config)?.0)
}

/// [`tabu_search`] with an objective trace (best worst-case length after
/// each iteration), for the search ablation.
///
/// # Errors
///
/// Propagates evaluation errors; the initial state must be feasible.
pub fn tabu_search_traced(
    app: &Application,
    platform: &Platform,
    k: u32,
    initial: Synthesized,
    policy_moves: PolicyMoves,
    config: SearchConfig,
) -> Result<(Synthesized, Vec<i64>), OptError> {
    let mut evaluator = SystemEvaluator::new(app, platform, k);
    tabu_search_traced_with(&mut evaluator, initial, policy_moves, config)
}

/// [`tabu_search_traced`] over a caller-provided evaluator kernel.
///
/// # Errors
///
/// Propagates evaluation errors; the initial state must be feasible.
pub fn tabu_search_traced_with(
    evaluator: &mut SystemEvaluator,
    initial: Synthesized,
    policy_moves: PolicyMoves,
    config: SearchConfig,
) -> Result<(Synthesized, Vec<i64>), OptError> {
    tabu_search_guarded_with(evaluator, initial, policy_moves, config, &mut |_| Ok(true))
}

/// Admission guard consulted before a candidate may displace the search's
/// best-so-far state — the certify-guided hook. `Ok(true)` admits the
/// candidate as the new best; `Ok(false)` demotes it: the walk still
/// continues from it (it stays the *current* state), but it can never be
/// returned as the search's answer. The always-admit guard reproduces the
/// unguarded search bit for bit.
pub type BestGuard<'a> = &'a mut dyn FnMut(&Synthesized) -> Result<bool, OptError>;

/// [`tabu_search_traced_with`] with an admission guard on best-so-far
/// updates: certify-guided searches pass a guard that incrementally
/// certifies the candidate against the deadline and demotes refuted states
/// *during* the search instead of discovering them post hoc.
///
/// # Errors
///
/// Propagates evaluation errors and guard failures; the initial state must
/// be feasible.
pub fn tabu_search_guarded_with(
    evaluator: &mut SystemEvaluator,
    initial: Synthesized,
    policy_moves: PolicyMoves,
    config: SearchConfig,
    guard: BestGuard<'_>,
) -> Result<(Synthesized, Vec<i64>), OptError> {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let n = evaluator.app().process_count();
    let deadline = evaluator.app().deadline();
    // Anchor the delta base at the search's starting state.
    evaluator.evaluate(&initial.copies, &initial.policies)?;
    let mut pool = ProposalPool::new(evaluator, policy_moves, config);
    let mut current = initial.clone();
    let mut best = initial;
    let mut tabu_until = vec![0usize; n];
    let mut trace = Vec::with_capacity(config.iterations);

    for iter in 0..config.iterations {
        // Sample the whole neighborhood, then score it in one batch pass.
        pool.sample_neighborhood(evaluator, &current, &mut rng);
        let best_objective = config.calibrated_objective(&best, deadline);
        let mut best_move: Option<(usize, ProcessId, (bool, Time, Time))> = None;
        for i in 0..pool.len() {
            let Some(proposal) = pool.scored(i) else { continue };
            let objective = config.calibrated_objective(&proposal.state, deadline);
            let aspiration = objective < best_objective;
            if tabu_until[proposal.process.index()] > iter && !aspiration {
                continue;
            }
            if best_move.is_none_or(|(_, _, chosen)| objective < chosen) {
                best_move = Some((i, proposal.process, objective));
            }
        }
        ftes_obs::counter(ftes_obs::names::SEARCH_ITER, 1);
        if let Some((i, p, objective)) = best_move {
            ftes_obs::counter(ftes_obs::names::SEARCH_ACCEPT, 1);
            tabu_until[p.index()] = iter + config.tenure;
            pool.swap_into(i, &mut current);
            if objective < best_objective && guard(&current)? {
                best.clone_from(&current);
            }
            // Re-anchor the delta base at the accepted state.
            evaluator.evaluate(&current.copies, &current.policies)?;
        } else {
            ftes_obs::counter(ftes_obs::names::SEARCH_REJECT, 1);
        }
        trace.push(best.estimate.worst_case_length.units());
    }
    Ok((best, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_model::samples;

    fn setup(k: u32) -> (Application, Platform, Synthesized) {
        let (app, arch) = samples::fig3();
        let node_count = arch.node_count();
        let platform =
            Platform::new(arch, ftes_tdma::TdmaBus::uniform(node_count, Time::new(8)).unwrap())
                .unwrap();
        let mapping = Mapping::cheapest(&app, platform.architecture()).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, k);
        let initial = Synthesized::evaluate(&app, &platform, mapping, policies, k).unwrap();
        (app, platform, initial)
    }

    #[test]
    fn candidate_policies_tolerate_k() {
        let (app, _) = samples::fig3();
        // Replication is always among the candidates (replicas may share a
        // node); every candidate tolerates k.
        for k in 1..=3 {
            for (pid, _) in app.processes() {
                let cands = candidate_policies(&app, pid, k, 16);
                assert!(cands.iter().any(|p| p.replica_count() == k));
                for c in cands {
                    assert!(c.tolerates(k), "candidate must tolerate k={k}");
                }
            }
        }
    }

    #[test]
    fn k_zero_has_single_candidate() {
        let (app, _) = samples::fig3();
        let cands = candidate_policies(&app, ProcessId::new(0), 0, 16);
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0], Policy::reexecution(0));
    }

    #[test]
    fn tabu_search_never_worsens_the_best() {
        let (app, platform, initial) = setup(2);
        let initial_obj = initial.objective();
        let result = tabu_search(
            &app,
            &platform,
            2,
            initial,
            PolicyMoves::Full,
            SearchConfig { iterations: 40, ..SearchConfig::default() },
        )
        .unwrap();
        assert!(result.objective() <= initial_obj);
        result.policies.validate(2).unwrap();
    }

    #[test]
    fn mapping_only_search_keeps_policies() {
        let (app, platform, initial) = setup(1);
        let before: Vec<_> = initial.policies.iter().map(|(_, p)| p.clone()).collect();
        let result = tabu_search(
            &app,
            &platform,
            1,
            initial,
            PolicyMoves::None,
            SearchConfig { iterations: 30, ..SearchConfig::default() },
        )
        .unwrap();
        let after: Vec<_> = result.policies.iter().map(|(_, p)| p.clone()).collect();
        assert_eq!(before, after, "PolicyMoves::None must not touch policies");
    }

    #[test]
    fn guard_admissions_control_the_returned_best() {
        let (app, platform, initial) = setup(2);
        let cfg = SearchConfig { iterations: 30, ..SearchConfig::default() };
        // An always-true guard reproduces the unguarded search bit for bit,
        // and is consulted once per attempted best displacement.
        let mut evaluator = SystemEvaluator::new(&app, &platform, 2);
        let mut calls = 0u32;
        let (admitted, trace_a) = tabu_search_guarded_with(
            &mut evaluator,
            initial.clone(),
            PolicyMoves::Full,
            cfg,
            &mut |_| {
                calls += 1;
                Ok(true)
            },
        )
        .unwrap();
        let (unguarded, trace_b) =
            tabu_search_traced(&app, &platform, 2, initial.clone(), PolicyMoves::Full, cfg)
                .unwrap();
        assert!(calls > 0, "the walk must try to displace the best at least once");
        assert_eq!(admitted.estimate, unguarded.estimate);
        assert_eq!(trace_a, trace_b);
        // An always-false guard demotes every candidate: the best never
        // moves off the initial state.
        let mut evaluator = SystemEvaluator::new(&app, &platform, 2);
        let (demoted, _) = tabu_search_guarded_with(
            &mut evaluator,
            initial.clone(),
            PolicyMoves::Full,
            cfg,
            &mut |_| Ok(false),
        )
        .unwrap();
        assert_eq!(demoted.estimate, initial.estimate);
        assert_eq!(demoted.mapping, initial.mapping);
    }

    #[test]
    fn search_is_deterministic_in_seed() {
        let (app, platform, initial) = setup(2);
        let cfg = SearchConfig { iterations: 25, seed: 99, ..SearchConfig::default() };
        let a = tabu_search(&app, &platform, 2, initial.clone(), PolicyMoves::Full, cfg).unwrap();
        let b = tabu_search(&app, &platform, 2, initial, PolicyMoves::Full, cfg).unwrap();
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.mapping, b.mapping);
    }
}
