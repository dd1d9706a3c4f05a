//! The parallel portfolio engine: diversified search workers over a shared
//! estimate cache, with incumbent broadcasting at deterministic round
//! barriers.
//!
//! ## Design
//!
//! A portfolio run is a sequence of **rounds**. Within a round every worker
//! advances independently — its trajectory depends only on its own seeded
//! RNG, its engine and the round-start incumbent. A worker is the serial
//! search of `ftes-opt` ([`Walker`]), driven round by round with its own
//! evaluator kernel and (certify-guided) its own certifier; only the
//! scoring differs: the shared [`EstimateCache`] is probed per proposal and
//! only the misses reach the worker's kernel, in one batch pass. Workers
//! run on scoped threads. At the round barrier the per-worker archives
//! merge (order-independent, see [`ParetoArchive`]), the global incumbent
//! is recomputed with a canonical tie-break, and workers whose current
//! state is worse than the incumbent adopt it.
//!
//! ## Determinism
//!
//! Thread scheduling can reorder *when* states are evaluated but never
//! *which* states each worker visits: the cache returns identical values
//! regardless of who computed them, archives are order-independent sets,
//! and all cross-worker communication happens at barriers with canonical
//! tie-breaks. Hence: same seed ⇒ identical best state and identical
//! Pareto archive for **any** thread count — the property
//! `tests/determinism.rs` locks in.

use crate::archive::{ArchiveEntry, ParetoArchive};
use crate::cache::{CacheStats, CertifyCache, EstimateCache, StateKey};
use crate::pool::{indexed_parallel, score_neighborhood};
use ftes_ft::PolicyAssignment;
use ftes_model::{Application, FaultModel, Time, Transparency};
use ftes_opt::{
    certify_admits, constructive_mapping, EngineKind, OptError, PolicyMoves, SearchConfig,
    Synthesized, Walker,
};
use ftes_sched::{Certifier, CertifyConfig, EvaluatorStats, SystemEvaluator};
use ftes_tdma::Platform;
use std::fmt;
use std::sync::Mutex;

/// Error produced by the exploration engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum ExploreError {
    /// The initial configuration could not be constructed or evaluated.
    Infeasible(OptError),
    /// The configuration is structurally invalid (empty portfolio, zero
    /// rounds, …).
    BadConfig(String),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Infeasible(e) => write!(f, "no feasible starting point: {e}"),
            ExploreError::BadConfig(msg) => write!(f, "bad exploration config: {msg}"),
        }
    }
}

impl std::error::Error for ExploreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExploreError::Infeasible(e) => Some(e),
            ExploreError::BadConfig(_) => None,
        }
    }
}

impl From<OptError> for ExploreError {
    fn from(e: OptError) -> Self {
        ExploreError::Infeasible(e)
    }
}

/// One diversified worker of the portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerSpec {
    /// Which engine the worker runs.
    pub engine: EngineKind,
    /// Mixed into the portfolio seed so workers decorrelate.
    pub seed_offset: u64,
    /// Candidate moves sampled (and batch-evaluated) per iteration.
    pub neighborhood: usize,
    /// Tabu tenure (ignored by non-tabu engines).
    pub tenure: usize,
}

/// The default diversified portfolio: two tabu workers with different
/// tenures/neighborhoods, one annealer, one greedy descender.
pub fn default_portfolio() -> Vec<WorkerSpec> {
    vec![
        WorkerSpec { engine: EngineKind::Tabu, seed_offset: 1, neighborhood: 24, tenure: 8 },
        WorkerSpec { engine: EngineKind::Tabu, seed_offset: 2, neighborhood: 12, tenure: 4 },
        WorkerSpec { engine: EngineKind::Anneal, seed_offset: 3, neighborhood: 16, tenure: 0 },
        WorkerSpec { engine: EngineKind::Greedy, seed_offset: 4, neighborhood: 32, tenure: 0 },
    ]
}

/// Tunables of a portfolio exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioConfig {
    /// The diversified workers (must be non-empty).
    pub workers: Vec<WorkerSpec>,
    /// Synchronization rounds (incumbent broadcast + archive merge).
    pub rounds: usize,
    /// Search iterations each worker runs per round.
    pub iterations_per_round: usize,
    /// Total threads the engine may occupy (bounds how many workers run
    /// concurrently; each worker scores its neighborhoods through one warm
    /// kernel, so there is no per-candidate fan-out below the workers).
    pub threads: usize,
    /// Cap on checkpoint counts in candidate policies.
    pub max_checkpoints: u32,
    /// Master seed; worker seeds derive from it and their `seed_offset`.
    pub seed: u64,
    /// Certify-guided incumbents: candidates that would become a worker's
    /// best under the estimate are incrementally exact-certified against
    /// the deadline first (bounded, memo-backed), and refuted states are
    /// demoted *during* the search instead of post hoc. Worker certifiers
    /// run unbudgeted and verdicts are shared through a pending-reserving
    /// cache, so trajectories and counters stay thread-count-deterministic.
    pub certify_guided: bool,
}

impl Default for PortfolioConfig {
    fn default() -> Self {
        PortfolioConfig {
            workers: default_portfolio(),
            rounds: 4,
            iterations_per_round: 30,
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            max_checkpoints: 16,
            seed: 1,
            certify_guided: false,
        }
    }
}

impl PortfolioConfig {
    /// A down-scaled configuration for tests and smoke runs.
    pub fn quick(seed: u64) -> Self {
        PortfolioConfig {
            rounds: 2,
            iterations_per_round: 8,
            threads: 2,
            seed,
            ..PortfolioConfig::default()
        }
    }
}

/// Result of one portfolio exploration.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// The single-objective incumbent as a full [`Synthesized`]
    /// configuration (mapping, policies, replica placement, estimate).
    pub best: Synthesized,
    /// The Pareto front over (worst-case, recovery slack, table cost).
    pub archive: ParetoArchive,
    /// Estimate-cache counters for the whole run.
    pub cache: CacheStats,
    /// Evaluator-kernel counters (constructions, full/delta evaluations,
    /// reuse) aggregated over the workers' kernels.
    pub evals: EvaluatorStats,
    /// Certify-guided admit-cache counters (all zero when
    /// [`PortfolioConfig::certify_guided`] is off). Deterministic for any
    /// thread count, like the estimate-cache counters.
    pub certify: CacheStats,
}

/// A worker's private search state between rounds: the walk, the warm
/// kernel that scores its cache misses and, certify-guided, its
/// incremental certifier (anchors and subtree memos stay warm across
/// rounds).
struct Worker {
    walker: Walker,
    evaluator: SystemEvaluator,
    certifier: Option<Certifier>,
}

impl Worker {
    /// Advances the walk by `iterations` steps, returning the round's
    /// archive of every feasible proposal.
    fn run_round(
        &mut self,
        iterations: usize,
        cache: &EstimateCache,
        certify_cache: &CertifyCache,
    ) -> Result<ParetoArchive, ExploreError> {
        let mut archive = ParetoArchive::new();
        let deadline = self.evaluator.app().deadline();
        for _ in 0..iterations {
            self.walker.sample(self.evaluator.app(), self.evaluator.platform().architecture());
            score_neighborhood(&mut self.walker, &mut self.evaluator, cache, &mut archive);
            let moved = match self.certifier.as_mut() {
                // Verdicts are shared through the admit cache. A hard
                // certification failure degrades to the estimate-only
                // regime (admit) rather than aborting the search.
                Some(certifier) => self.walker.accept(Some(&mut |candidate: &Synthesized| {
                    let key = StateKey::encode(&candidate.mapping, &candidate.policies);
                    Ok(certify_cache.get_or_compute(key, || {
                        certify_admits(certifier, deadline, candidate).unwrap_or(true)
                    }))
                }))?,
                None => self.walker.accept(None)?,
            };
            if moved {
                // Re-anchor the delta base at the accepted state.
                let current = self.walker.current();
                let _ = self.evaluator.evaluate(&current.copies, &current.policies);
            }
        }
        Ok(archive)
    }
}

/// Barrier rank of a state: the search objective, then the canonical key,
/// so the incumbent never depends on which worker found it.
fn rank(state: &Synthesized) -> (Time, Time, StateKey) {
    let (worst, fault_free) = state.objective();
    (worst, fault_free, StateKey::encode(&state.mapping, &state.policies))
}

/// Runs the parallel portfolio exploration.
///
/// # Errors
///
/// Returns [`ExploreError::BadConfig`] for an empty portfolio or a zero
/// round/iteration budget, and [`ExploreError::Infeasible`] when no feasible
/// starting configuration exists.
pub fn explore(
    app: &Application,
    platform: &Platform,
    k: u32,
    config: &PortfolioConfig,
) -> Result<Exploration, ExploreError> {
    if config.workers.is_empty() {
        return Err(ExploreError::BadConfig("portfolio has no workers".into()));
    }
    if config.rounds == 0 || config.iterations_per_round == 0 {
        return Err(ExploreError::BadConfig("rounds and iterations must be positive".into()));
    }

    // Deterministic feasible starting point (same as the serial strategies).
    let initial_mapping = constructive_mapping(app, platform.architecture())
        .map_err(|e| ExploreError::Infeasible(OptError::from(e)))?;
    let initial_policies = PolicyAssignment::uniform_reexecution(app, k);
    // The kernel that scores the initial state becomes the first worker's.
    let mut first_kernel = SystemEvaluator::new(app, platform, k);
    let initial = Synthesized::evaluate_with(&mut first_kernel, initial_mapping, initial_policies)
        .map_err(|_| {
            ExploreError::Infeasible(OptError::NoFeasibleConfiguration(
                "initial re-execution configuration is infeasible".into(),
            ))
        })?;

    let cache = EstimateCache::new();
    // Seed the cache with the initial state so workers hit it immediately.
    cache.get_or_compute(StateKey::encode(&initial.mapping, &initial.policies), || {
        Some(initial.estimate)
    });

    let worker_count = config.workers.len();
    let worker_threads = config.threads.clamp(1, worker_count);

    // Certify-guided mode: one incremental certifier per worker, one shared
    // admit cache. The work budget is unlimited on purpose — a budget would
    // make verdicts depend on which worker certified first, breaking the
    // thread-count determinism contract.
    let certify_cache = CertifyCache::new();
    let mut first_kernel = Some(first_kernel);
    let workers: Vec<Mutex<Worker>> = config
        .workers
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            // Decorrelate workers: golden-ratio mix of master seed, offset
            // and index.
            let seed = config
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(spec.seed_offset)
                .wrapping_add((i as u64) << 32);
            let search = SearchConfig {
                iterations: config.rounds * config.iterations_per_round,
                tenure: spec.tenure,
                neighborhood: spec.neighborhood,
                max_checkpoints: config.max_checkpoints,
                seed,
                calibration_milli: 1000,
            };
            // Every kernel's delta base is anchored at the starting state.
            let evaluator = first_kernel.take().unwrap_or_else(|| {
                let mut evaluator = SystemEvaluator::new(app, platform, k);
                let _ = evaluator.evaluate(&initial.copies, &initial.policies);
                evaluator
            });
            let certifier = config.certify_guided.then(|| {
                Certifier::new(
                    app,
                    platform,
                    FaultModel::new(k),
                    &Transparency::none(),
                    CertifyConfig { max_exact_runs: u64::MAX, ..CertifyConfig::default() },
                )
            });
            Mutex::new(Worker {
                walker: Walker::new(
                    spec.engine,
                    app,
                    k,
                    initial.clone(),
                    PolicyMoves::Full,
                    search,
                ),
                evaluator,
                certifier,
            })
        })
        .collect();

    let mut archive = ParetoArchive::new();
    archive.insert(ArchiveEntry::new(
        initial.mapping.clone(),
        initial.policies.clone(),
        initial.estimate,
    ));

    for _ in 0..config.rounds {
        // Workers advance in parallel; each returns its round archive.
        let round_archives = indexed_parallel(worker_count, worker_threads, |i| {
            workers[i].lock().expect("worker state poisoned").run_round(
                config.iterations_per_round,
                &cache,
                &certify_cache,
            )
        });
        for local in round_archives {
            archive.merge(local?);
        }
        // Barrier: recompute the incumbent with a canonical tie-break and
        // broadcast it to workers that fell behind.
        let ranks: Vec<_> = workers
            .iter()
            .map(|w| rank(w.lock().expect("worker state poisoned").walker.best()))
            .collect();
        let leader = (0..worker_count).min_by(|&a, &b| ranks[a].cmp(&ranks[b])).unwrap_or(0);
        let incumbent =
            workers[leader].lock().expect("worker state poisoned").walker.best().clone();
        let incumbent_rank = &ranks[leader];
        for slot in &workers {
            let mut worker = slot.lock().expect("worker state poisoned");
            if *incumbent_rank < rank(worker.walker.best()) {
                worker.walker.set_best(&incumbent);
            }
            if *incumbent_rank < rank(worker.walker.current()) {
                worker.walker.set_current(&incumbent);
            }
        }
    }

    let mut evals = EvaluatorStats::default();
    let mut best: Option<((Time, Time, StateKey), Synthesized)> = None;
    for slot in workers {
        let worker = slot.into_inner().expect("worker state poisoned");
        evals = evals.merged(worker.evaluator.stats());
        let candidate = worker.walker.into_best();
        let candidate_rank = rank(&candidate);
        if best.as_ref().is_none_or(|(r, _)| candidate_rank < *r) {
            best = Some((candidate_rank, candidate));
        }
    }
    let (_, best) = best.expect("portfolio is non-empty");

    Ok(Exploration { best, archive, cache: cache.stats(), evals, certify: certify_cache.stats() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_gen::{generate_application, GeneratorConfig};
    use ftes_model::samples;

    fn fig3_platform() -> (Application, Platform) {
        let (app, arch) = samples::fig3();
        let nodes = arch.node_count();
        let platform =
            Platform::new(arch, ftes_tdma::TdmaBus::uniform(nodes, Time::new(8)).unwrap()).unwrap();
        (app, platform)
    }

    #[test]
    fn explore_beats_or_matches_the_initial_state() {
        let (app, platform) = fig3_platform();
        let initial_mapping = constructive_mapping(&app, platform.architecture()).unwrap();
        let initial = Synthesized::evaluate(
            &app,
            &platform,
            initial_mapping,
            PolicyAssignment::uniform_reexecution(&app, 2),
            2,
        )
        .unwrap();
        let result = explore(&app, &platform, 2, &PortfolioConfig::quick(5)).unwrap();
        assert!(result.best.estimate.worst_case_length <= initial.estimate.worst_case_length);
        result.best.policies.validate(2).unwrap();
        assert!(!result.archive.is_empty());
        assert!(result.cache.misses > 0);
    }

    #[test]
    fn archive_front_is_mutually_non_dominated() {
        let app = generate_application(&GeneratorConfig::new(10, 3), 3).unwrap();
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let result = explore(&app, &platform, 2, &PortfolioConfig::quick(9)).unwrap();
        let entries = result.archive.entries();
        for a in entries {
            for b in entries {
                assert!(!a.objectives.dominates(&b.objectives) || a.objectives == b.objectives);
            }
        }
        // The incumbent is on the front.
        let best = result.archive.best_by_worst_case().unwrap();
        assert_eq!(best.estimate.worst_case_length, result.best.estimate.worst_case_length);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let app = generate_application(&GeneratorConfig::new(12, 3), 7).unwrap();
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let run = |threads: usize| {
            let config = PortfolioConfig { threads, ..PortfolioConfig::quick(11) };
            explore(&app, &platform, 2, &config).unwrap()
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial.archive.signature(), parallel.archive.signature());
        assert_eq!(serial.best.estimate, parallel.best.estimate);
        assert_eq!(serial.best.mapping, parallel.best.mapping);
    }

    #[test]
    fn certify_guided_results_do_not_depend_on_thread_count() {
        let app = generate_application(&GeneratorConfig::new(12, 3), 7).unwrap();
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let run = |threads: usize| {
            let config =
                PortfolioConfig { threads, certify_guided: true, ..PortfolioConfig::quick(11) };
            explore(&app, &platform, 1, &config).unwrap()
        };
        let serial = run(1);
        let parallel = run(8);
        assert_eq!(serial.archive.signature(), parallel.archive.signature());
        assert_eq!(serial.best.estimate, parallel.best.estimate);
        assert_eq!(serial.best.mapping, parallel.best.mapping);
        // The admit-cache accounting is part of the deterministic surface:
        // the pending reservation pins one miss per unique admitted state.
        assert_eq!(serial.certify, parallel.certify);
        assert!(
            serial.certify.misses > 0,
            "the guided run must actually certify incumbents: {:?}",
            serial.certify
        );
    }

    #[test]
    fn certify_guided_incumbent_is_exactly_schedulable_or_estimate_refuted() {
        let app = generate_application(&GeneratorConfig::new(10, 3), 3).unwrap();
        let platform = Platform::homogeneous(3, Time::new(8)).unwrap();
        let config = PortfolioConfig { certify_guided: true, ..PortfolioConfig::quick(5) };
        let result = explore(&app, &platform, 1, &config).unwrap();
        // The guard admits two classes of best: exact-certified states, and
        // states the estimate itself already prices past the deadline
        // (certifying those cannot change their ranking). Either way the
        // reported incumbent can never be an estimate-optimistic fraud that
        // a bounded exact run had already refuted.
        if result.best.estimate.worst_case_length <= app.deadline() {
            let mut certifier = Certifier::new(
                &app,
                &platform,
                FaultModel::new(1),
                &Transparency::none(),
                CertifyConfig::default(),
            );
            let verdict = certifier.certify(&result.best.copies, &result.best.policies).unwrap();
            assert!(verdict.is_certified(), "guided incumbent must certify: {verdict:?}");
        }
    }

    #[test]
    fn certify_guided_off_reports_zero_certify_counters() {
        let (app, platform) = fig3_platform();
        let result = explore(&app, &platform, 1, &PortfolioConfig::quick(2)).unwrap();
        assert_eq!(result.certify, CacheStats::default());
    }

    #[test]
    fn cache_hits_accumulate_across_workers() {
        let (app, platform) = fig3_platform();
        let result = explore(&app, &platform, 1, &PortfolioConfig::quick(2)).unwrap();
        assert!(result.cache.hits > 0, "portfolio revisits states; the cache must absorb them");
    }

    #[test]
    fn bad_configs_are_rejected() {
        let (app, platform) = fig3_platform();
        let empty = PortfolioConfig { workers: vec![], ..PortfolioConfig::quick(1) };
        assert!(matches!(explore(&app, &platform, 1, &empty), Err(ExploreError::BadConfig(_))));
        let zero = PortfolioConfig { rounds: 0, ..PortfolioConfig::quick(1) };
        assert!(matches!(explore(&app, &platform, 1, &zero), Err(ExploreError::BadConfig(_))));
    }
}
