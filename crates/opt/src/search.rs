//! The search engine over mapping and policy-assignment moves (the MXR
//! optimization of \[13\], §6): tabu search, plus the greedy-descent and
//! simulated-annealing rules the search ablation compares it with.
//!
//! A candidate state is a base mapping plus one policy per process; replicas
//! are placed by [`CopyMapping::from_base`] and the state is evaluated with
//! the root-schedule estimator. Moves:
//!
//! * **remap** — move one (non-fixed) process to another feasible node;
//! * **repolicy** — switch one process among its candidate policies
//!   (re-execution, replication, replication+checkpointed original).
//!
//! Under tabu search, recently touched processes are tabu for `tenure`
//! iterations unless a move beats the global best (aspiration).
//!
//! Every engine runs the same step ([`Walker`]): serial searches
//! ([`search`]) and the portfolio workers of `ftes-explore` differ only in
//! how they score a neighborhood. One step allocates nothing in steady
//! state. The move vocabulary (candidate nodes and policies per process)
//! is computed once per search ([`MoveVocabulary`]); neighbors are built in
//! reusable proposal slots by resetting a slot to the current state
//! (`clone_from`, which shares every policy), applying the move in place
//! and re-deriving the slot's copy placement in place
//! ([`CopyMapping::rederive`]); a serial search scores the slots as one
//! slice by [`SystemEvaluator::evaluate_batch_into`]; and the winner is
//! swapped into the current state, so only a displaced best is copied.

use crate::OptError;
use ftes_ft::{CopyPlan, Policy, PolicyAssignment};
use ftes_ftcpg::CopyMapping;
use ftes_model::{Application, Architecture, Mapping, NodeId, ProcessId, Time};
use ftes_sched::{BatchCandidate, Estimate, SchedError, SystemEvaluator};
use ftes_tdma::Platform;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt;

/// Tunables of a search (any [`EngineKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Total iterations.
    pub iterations: usize,
    /// Tabu tenure (iterations a touched process stays tabu; tabu only).
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

/// The metaheuristic a search runs. All three share one step — sample a
/// neighborhood, score it, accept — and differ only in the acceptance rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Tabu search (the paper's MXR engine): take the best non-tabu move,
    /// or a tabu one that beats the best so far (aspiration).
    Tabu,
    /// Simulated annealing: walk the neighborhood in sample order, taking
    /// improving moves always and worsening ones with probability
    /// `exp(−Δ/T)`, with geometric cooling.
    Anneal,
    /// Greedy steepest descent: take the best move, and only if it
    /// improves the current state.
    Greedy,
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EngineKind::Tabu => "tabu",
            EngineKind::Anneal => "anneal",
            EngineKind::Greedy => "greedy",
        };
        write!(f, "{s}")
    }
}

/// Admission gate consulted before a candidate may displace the search's
/// best-so-far state — the certify-guided hook. `Ok(true)` admits the
/// candidate as the new best; `Ok(false)` demotes it: the walk still
/// continues from it (it stays the *current* state), but it can never be
/// returned as the search's answer.
///
/// The gate sees only candidates whose estimate meets the deadline: one
/// the estimate already prices past it ranks exactly as the estimator
/// says, and exact evidence cannot change that, so it is admitted
/// untested.
pub type BestGuard<'a> = dyn FnMut(&Synthesized) -> Result<bool, OptError> + 'a;

impl BatchCandidate for Synthesized {
    fn copies(&self) -> &CopyMapping {
        &self.copies
    }

    fn policies(&self) -> &PolicyAssignment {
        &self.policies
    }
}

/// One search's walk through the move space: its RNG, current and best
/// states, tabu tenures or annealing temperature, and a neighborhood of
/// proposal slots reused across steps.
///
/// A step has three parts. [`Walker::sample`] fills the slots with the
/// neighbors of the current state; the caller scores them and records
/// each score with [`Walker::set_score`]; [`Walker::accept`] applies the
/// engine's rule, with an optional admission gate on best-so-far updates.
/// [`Walker::step`] is the serial form, scoring the whole slot slice in one
/// [`SystemEvaluator::evaluate_batch_into`] pass; the portfolio workers of
/// `ftes-explore` score through a shared estimate cache instead.
pub struct Walker {
    engine: EngineKind,
    config: SearchConfig,
    deadline: Time,
    rng: ChaCha8Rng,
    vocabulary: MoveVocabulary,
    /// Slot storage; the first `len` slots hold the current neighborhood.
    slots: Vec<Synthesized>,
    /// The process each slot's move touches (the tabu bookkeeping unit).
    moved: Vec<ProcessId>,
    /// Whether each slot's evaluation succeeded.
    scored: Vec<bool>,
    len: usize,
    /// Kernel results of [`Walker::step`], reused across steps.
    batch: Vec<Result<Estimate, SchedError>>,
    current: Synthesized,
    best: Synthesized,
    tabu_until: Vec<usize>,
    iteration: usize,
    temperature: f64,
}

impl Walker {
    /// A walk from `initial` over `app` under fault budget `k`, drawing
    /// `config.neighborhood` moves per step from `config.seed`.
    pub fn new(
        engine: EngineKind,
        app: &Application,
        k: u32,
        initial: Synthesized,
        policy_moves: PolicyMoves,
        config: SearchConfig,
    ) -> Self {
        Walker {
            engine,
            config,
            deadline: app.deadline(),
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            vocabulary: MoveVocabulary::new(app, k, policy_moves, config.max_checkpoints),
            slots: Vec::with_capacity(config.neighborhood),
            moved: Vec::with_capacity(config.neighborhood),
            scored: Vec::with_capacity(config.neighborhood),
            len: 0,
            batch: Vec::with_capacity(config.neighborhood),
            current: initial.clone(),
            tabu_until: vec![0; app.process_count()],
            iteration: 0,
            // Initial temperature: 5% of the initial objective; floor of 1.
            temperature: (initial.estimate.worst_case_length.as_f64() * 0.05).max(1.0),
            best: initial,
        }
    }

    /// Samples the neighborhood of the current state — up to
    /// `neighborhood` candidate moves — into the proposal slots, unscored.
    ///
    /// Degenerate samples (no-op moves, fixed or single-node processes),
    /// infeasible applications and infeasible copy placements are skipped:
    /// the move is simply not available. Each slot is reset to the current
    /// state (`clone_from`, which shares every policy), moved in place and
    /// re-derived in place, so a step allocates nothing once the slots
    /// exist.
    pub fn sample(&mut self, app: &Application, arch: &Architecture) {
        self.len = 0;
        for _ in 0..self.config.neighborhood {
            let Some(mv) = self.vocabulary.sample(
                &self.current.mapping,
                &self.current.policies,
                &mut self.rng,
            ) else {
                continue;
            };
            if self.len == self.slots.len() {
                self.slots.push(self.current.clone());
                self.moved.push(mv.process());
                self.scored.push(false);
            }
            let slot = &mut self.slots[self.len];
            slot.mapping.clone_from(&self.current.mapping);
            slot.policies.clone_from(&self.current.policies);
            if !mv.apply_to(app, arch, &mut slot.mapping, &mut slot.policies)
                || slot.copies.rederive(app, arch, &slot.mapping, &slot.policies).is_err()
            {
                continue;
            }
            self.moved[self.len] = mv.process();
            self.scored[self.len] = false;
            self.len += 1;
        }
    }

    /// The sampled neighborhood, in sample order.
    pub fn proposals(&self) -> &[Synthesized] {
        &self.slots[..self.len]
    }

    /// Records the score of proposal `i`: its estimate, or `None` when its
    /// evaluation failed (e.g. a policy the bus cannot carry), which makes
    /// the move unavailable.
    pub fn set_score(&mut self, i: usize, score: Option<Estimate>) {
        if let Some(estimate) = score {
            self.slots[i].estimate = estimate;
        }
        self.scored[i] = score.is_some();
    }

    /// Applies the engine's acceptance rule to the scored neighborhood.
    /// Returns whether the current state moved; a caller whose evaluator is
    /// anchored at the current state re-anchors it then.
    ///
    /// # Errors
    ///
    /// Propagates admission-gate failures.
    pub fn accept(&mut self, mut gate: Option<&mut BestGuard<'_>>) -> Result<bool, OptError> {
        let moved = match self.engine {
            EngineKind::Tabu => self.accept_tabu(&mut gate)?,
            EngineKind::Greedy => self.accept_greedy(&mut gate)?,
            EngineKind::Anneal => self.accept_anneal(&mut gate)?,
        };
        self.iteration += 1;
        Ok(moved)
    }

    /// One serial step: sample, score the slot slice in one batch pass of
    /// `evaluator` (anchored at the current state), accept, and re-anchor
    /// the evaluator when the current state moved.
    ///
    /// # Errors
    ///
    /// Propagates evaluation and admission-gate errors.
    pub fn step(
        &mut self,
        evaluator: &mut SystemEvaluator,
        gate: Option<&mut BestGuard<'_>>,
    ) -> Result<(), OptError> {
        self.sample(evaluator.app(), evaluator.platform().architecture());
        evaluator.evaluate_batch_into(&self.slots[..self.len], &mut self.batch);
        for i in 0..self.len {
            let score = self.batch[i].as_ref().ok().copied();
            self.set_score(i, score);
        }
        if self.accept(gate)? {
            evaluator.evaluate(&self.current.copies, &self.current.policies)?;
        }
        Ok(())
    }

    /// The state the walk continues from.
    pub fn current(&self) -> &Synthesized {
        &self.current
    }

    /// The best admitted state so far.
    pub fn best(&self) -> &Synthesized {
        &self.best
    }

    /// Consumes the walk, returning its best admitted state.
    pub fn into_best(self) -> Synthesized {
        self.best
    }

    /// Replaces the current state (a portfolio barrier broadcasting a
    /// better incumbent).
    pub fn set_current(&mut self, state: &Synthesized) {
        self.current.clone_from(state);
    }

    /// Replaces the best state (a portfolio barrier broadcasting a better
    /// incumbent).
    pub fn set_best(&mut self, state: &Synthesized) {
        self.best.clone_from(state);
    }

    fn objective(&self, state: &Synthesized) -> (bool, Time, Time) {
        self.config.calibrated_objective(state, self.deadline)
    }

    /// Makes proposal `i` the current state. The slot receives the previous
    /// current state, which the next sample overwrites.
    fn take(&mut self, i: usize) {
        std::mem::swap(&mut self.slots[i], &mut self.current);
    }

    /// Copies the current state into the best one if it beats it and the
    /// gate admits it.
    fn promote(&mut self, gate: &mut Option<&mut BestGuard<'_>>) -> Result<(), OptError> {
        if self.objective(&self.current) >= self.objective(&self.best) {
            return Ok(());
        }
        let admitted = self.current.estimate.worst_case_length > self.deadline
            || match gate {
                Some(gate) => gate(&self.current)?,
                None => true,
            };
        if admitted {
            self.best.clone_from(&self.current);
        }
        Ok(())
    }

    fn accept_tabu(&mut self, gate: &mut Option<&mut BestGuard<'_>>) -> Result<bool, OptError> {
        let best_objective = self.objective(&self.best);
        let mut chosen: Option<(usize, (bool, Time, Time))> = None;
        for i in 0..self.len {
            if !self.scored[i] {
                continue;
            }
            let objective = self.objective(&self.slots[i]);
            let aspiration = objective < best_objective;
            if self.tabu_until[self.moved[i].index()] > self.iteration && !aspiration {
                continue;
            }
            if chosen.is_none_or(|(_, c)| objective < c) {
                chosen = Some((i, objective));
            }
        }
        ftes_obs::counter(ftes_obs::names::SEARCH_ITER, 1);
        let Some((i, _)) = chosen else {
            ftes_obs::counter(ftes_obs::names::SEARCH_REJECT, 1);
            return Ok(false);
        };
        ftes_obs::counter(ftes_obs::names::SEARCH_ACCEPT, 1);
        self.tabu_until[self.moved[i].index()] = self.iteration + self.config.tenure;
        self.take(i);
        self.promote(gate)?;
        Ok(true)
    }

    fn accept_greedy(&mut self, gate: &mut Option<&mut BestGuard<'_>>) -> Result<bool, OptError> {
        let mut bar = self.objective(&self.current);
        let mut chosen = None;
        for i in 0..self.len {
            if self.scored[i] && self.objective(&self.slots[i]) < bar {
                bar = self.objective(&self.slots[i]);
                chosen = Some(i);
            }
        }
        ftes_obs::counter(ftes_obs::names::SEARCH_ITER, 1);
        let Some(i) = chosen else {
            ftes_obs::counter(ftes_obs::names::SEARCH_REJECT, 1);
            return Ok(false);
        };
        ftes_obs::counter(ftes_obs::names::SEARCH_ACCEPT, 1);
        self.take(i);
        self.promote(gate)?;
        Ok(true)
    }

    /// The Metropolis walk over the scored neighborhood: `Δ` is measured
    /// against the evolving current state.
    fn accept_anneal(&mut self, gate: &mut Option<&mut BestGuard<'_>>) -> Result<bool, OptError> {
        let mut moved = false;
        for i in 0..self.len {
            if !self.scored[i] {
                continue;
            }
            let delta = (self.slots[i].estimate.worst_case_length
                - self.current.estimate.worst_case_length)
                .as_f64();
            let accept =
                delta <= 0.0 || self.rng.gen_bool((-delta / self.temperature).exp().min(1.0));
            ftes_obs::counter(ftes_obs::names::SEARCH_ITER, 1);
            if !accept {
                ftes_obs::counter(ftes_obs::names::SEARCH_REJECT, 1);
                continue;
            }
            ftes_obs::counter(ftes_obs::names::SEARCH_ACCEPT, 1);
            self.take(i);
            moved = true;
            self.promote(gate)?;
        }
        self.temperature = (self.temperature * 0.95).max(1e-3);
        Ok(moved)
    }
}

/// Runs a search from an initial state, minimizing the (calibrated)
/// estimated worst-case schedule length: `config.iterations` serial
/// [`Walker::step`]s over one evaluator kernel (the flow layer shares it
/// across synthesis phases), with an optional admission gate on
/// best-so-far updates — certify-guided searches pass one that
/// incrementally certifies candidates and demotes refuted states *during*
/// the search.
///
/// # Errors
///
/// Propagates evaluation and gate errors; the initial state must be
/// feasible.
pub fn search(
    evaluator: &mut SystemEvaluator,
    engine: EngineKind,
    initial: Synthesized,
    policy_moves: PolicyMoves,
    config: SearchConfig,
    mut gate: Option<&mut BestGuard<'_>>,
) -> Result<Synthesized, OptError> {
    // Anchor the delta base at the search's starting state.
    evaluator.evaluate(&initial.copies, &initial.policies)?;
    let mut walker =
        Walker::new(engine, evaluator.app(), evaluator.k(), initial, policy_moves, config);
    for _ in 0..config.iterations {
        walker.step(evaluator, gate.as_deref_mut())?;
    }
    Ok(walker.into_best())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_gen::{generate_application, GeneratorConfig};
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

    fn generated(seed: u64) -> (Application, Platform, Synthesized) {
        let app = generate_application(&GeneratorConfig::new(12, 3), seed).unwrap();
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let mapping = Mapping::cheapest(&app, platform.architecture()).unwrap();
        let policies = PolicyAssignment::uniform_reexecution(&app, 2);
        let initial = Synthesized::evaluate(&app, &platform, mapping, policies, 2).unwrap();
        (app, platform, initial)
    }

    fn run(
        engine: EngineKind,
        app: &Application,
        platform: &Platform,
        k: u32,
        initial: Synthesized,
        policy_moves: PolicyMoves,
        config: SearchConfig,
    ) -> Synthesized {
        let mut evaluator = SystemEvaluator::new(app, platform, k);
        search(&mut evaluator, engine, initial, policy_moves, config, None).unwrap()
    }

    /// A walk's best worst-case length after each step.
    fn traced(
        engine: EngineKind,
        app: &Application,
        platform: &Platform,
        initial: Synthesized,
        config: SearchConfig,
    ) -> (Synthesized, Vec<i64>) {
        let mut evaluator = SystemEvaluator::new(app, platform, 2);
        evaluator.evaluate(&initial.copies, &initial.policies).unwrap();
        let mut walker = Walker::new(engine, app, 2, initial, PolicyMoves::Full, config);
        let mut trace = Vec::new();
        for _ in 0..config.iterations {
            walker.step(&mut evaluator, None).unwrap();
            trace.push(walker.best().estimate.worst_case_length.units());
        }
        (walker.into_best(), trace)
    }

    fn cfg(seed: u64) -> SearchConfig {
        SearchConfig { iterations: 20, neighborhood: 10, seed, ..SearchConfig::default() }
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
        let result = run(
            EngineKind::Tabu,
            &app,
            &platform,
            2,
            initial,
            PolicyMoves::Full,
            SearchConfig { iterations: 40, ..SearchConfig::default() },
        );
        assert!(result.objective() <= initial_obj);
        result.policies.validate(2).unwrap();
    }

    #[test]
    fn mapping_only_search_keeps_policies() {
        let (app, platform, initial) = setup(1);
        let before: Vec<_> = initial.policies.iter().map(|(_, p)| p.clone()).collect();
        for engine in [EngineKind::Tabu, EngineKind::Anneal, EngineKind::Greedy] {
            let result = run(
                engine,
                &app,
                &platform,
                1,
                initial.clone(),
                PolicyMoves::None,
                SearchConfig { iterations: 30, ..SearchConfig::default() },
            );
            let after: Vec<_> = result.policies.iter().map(|(_, p)| p.clone()).collect();
            assert_eq!(before, after, "PolicyMoves::None must not touch policies ({engine})");
        }
    }

    #[test]
    fn guard_admissions_control_the_returned_best() {
        let (app, platform, initial) = generated(0);
        let cfg = SearchConfig { iterations: 30, ..SearchConfig::default() };
        assert!(
            initial.estimate.worst_case_length <= app.deadline(),
            "the gate judges only states that meet the deadline"
        );
        // An always-true gate reproduces the ungated search bit for bit,
        // and is consulted once per attempted best displacement.
        let mut evaluator = SystemEvaluator::new(&app, &platform, 2);
        let mut calls = 0u32;
        let admitted = search(
            &mut evaluator,
            EngineKind::Tabu,
            initial.clone(),
            PolicyMoves::Full,
            cfg,
            Some(&mut |_| {
                calls += 1;
                Ok(true)
            }),
        )
        .unwrap();
        let ungated =
            run(EngineKind::Tabu, &app, &platform, 2, initial.clone(), PolicyMoves::Full, cfg);
        assert!(calls > 0, "the walk must try to displace the best at least once");
        assert_eq!(admitted.estimate, ungated.estimate);
        assert_eq!(admitted.mapping, ungated.mapping);
        // An always-false gate demotes every candidate: the best never
        // moves off the initial state.
        let mut evaluator = SystemEvaluator::new(&app, &platform, 2);
        let demoted = search(
            &mut evaluator,
            EngineKind::Tabu,
            initial.clone(),
            PolicyMoves::Full,
            cfg,
            Some(&mut |_| Ok(false)),
        )
        .unwrap();
        assert_eq!(demoted.estimate, initial.estimate);
        assert_eq!(demoted.mapping, initial.mapping);
    }

    #[test]
    fn search_is_deterministic_in_seed() {
        let (app, platform, initial) = setup(2);
        let cfg = SearchConfig { iterations: 25, seed: 99, ..SearchConfig::default() };
        for engine in [EngineKind::Tabu, EngineKind::Anneal, EngineKind::Greedy] {
            let a = run(engine, &app, &platform, 2, initial.clone(), PolicyMoves::Full, cfg);
            let b = run(engine, &app, &platform, 2, initial.clone(), PolicyMoves::Full, cfg);
            assert_eq!(a.estimate, b.estimate);
            assert_eq!(a.mapping, b.mapping);
        }
    }

    #[test]
    fn greedy_never_worsens_and_trace_is_monotone() {
        let (app, platform, initial) = generated(0);
        let start = initial.objective();
        let (result, trace) = traced(EngineKind::Greedy, &app, &platform, initial, cfg(0));
        assert!(result.objective() <= start);
        for w in trace.windows(2) {
            assert!(w[1] <= w[0], "greedy trace is non-increasing");
        }
    }

    #[test]
    fn annealing_best_never_worse_than_initial() {
        let (app, platform, initial) = generated(1);
        let start = initial.objective();
        let (result, trace) = traced(EngineKind::Anneal, &app, &platform, initial, cfg(1));
        assert!(result.objective() <= start);
        assert_eq!(trace.len(), 20);
        for w in trace.windows(2) {
            assert!(w[1] <= w[0], "best-so-far trace is non-increasing");
        }
        result.policies.validate(2).unwrap();
    }

    #[test]
    fn engines_are_deterministic_in_seed() {
        let (app, platform, initial) = generated(2);
        let (a, ta) = traced(EngineKind::Anneal, &app, &platform, initial.clone(), cfg(7));
        let (b, tb) = traced(EngineKind::Anneal, &app, &platform, initial, cfg(7));
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(ta, tb);
    }
}
