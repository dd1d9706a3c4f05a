//! Worker-level parallelism and cache-backed neighborhood scoring.
//!
//! Parallelism lives at the *worker* level: the portfolio engine fans its
//! search workers across scoped threads through a deliberately simple
//! work-queue over `std::thread::scope` — no channels, no pool object to
//! keep alive, results returned in input order regardless of which thread
//! computed them (the property every determinism guarantee in this crate
//! leans on).
//!
//! Within a worker, a whole sampled neighborhood is scored by the worker's
//! own warm kernel: every proposal probes the shared estimate cache first,
//! and only the misses reach the kernel, in a single
//! [`SystemEvaluator::evaluate_batch_into`] pass that shares the schedule
//! prefix across the neighborhood.

use crate::archive::{ArchiveEntry, Objectives, ParetoArchive};
use crate::cache::{EstimateCache, Probe, StateKey};
use ftes_ft::PolicyAssignment;
use ftes_ftcpg::CopyMapping;
use ftes_opt::Walker;
use ftes_sched::{Estimate, SystemEvaluator};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(0..n)` across up to `threads` scoped threads, returning results
/// in index order. Work is claimed from a shared atomic counter, so uneven
/// item costs balance automatically.
pub(crate) fn indexed_parallel<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, T)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let f = &f;
                let next = &next;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker thread panicked")).collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for bucket in buckets {
        for (i, v) in bucket {
            slots[i] = Some(v);
        }
    }
    slots.into_iter().map(|s| s.expect("every index claimed exactly once")).collect()
}

/// Scores a walker's sampled neighborhood through the shared estimate
/// cache: every proposal is probed in sample order, reserving the misses;
/// only the misses run, in one batch pass of `evaluator`; their results are
/// published back (`resolve` never overwrites a value another worker got
/// there first with), recorded on the walker, and every feasible proposal
/// is offered to `archive`.
///
/// A key another worker is concurrently computing — or one sampled twice
/// in this neighborhood — counts as the hit it would be sequentially and
/// is scored locally rather than waited on. Scores are pure functions of
/// the state, so which kernel answers is unobservable.
pub(crate) fn score_neighborhood(
    walker: &mut Walker,
    evaluator: &mut SystemEvaluator,
    cache: &EstimateCache,
    archive: &mut ParetoArchive,
) {
    let proposals = walker.proposals();
    let mut keys = Vec::with_capacity(proposals.len());
    let mut scores: Vec<Option<Estimate>> = Vec::with_capacity(proposals.len());
    let mut misses = Vec::new();
    for (i, state) in proposals.iter().enumerate() {
        let key = StateKey::encode(&state.mapping, &state.policies);
        match cache.probe_or_reserve(&key) {
            Probe::Ready(value) => scores.push(value),
            Probe::Pending | Probe::Reserved => {
                misses.push(i);
                scores.push(None);
            }
        }
        keys.push(key);
    }
    if !misses.is_empty() {
        let refs: Vec<(&CopyMapping, &PolicyAssignment)> =
            misses.iter().map(|&i| (&proposals[i].copies, &proposals[i].policies)).collect();
        let mut results = Vec::with_capacity(refs.len());
        evaluator.evaluate_batch_into(&refs, &mut results);
        for (&i, result) in misses.iter().zip(results) {
            scores[i] = result.ok();
            cache.resolve(keys[i].clone(), scores[i]);
        }
    }
    for ((state, key), &score) in proposals.iter().zip(keys).zip(&scores) {
        if let Some(estimate) = score {
            archive.insert(ArchiveEntry {
                objectives: Objectives::of(&estimate, &state.policies),
                mapping: state.mapping.clone(),
                policies: state.policies.clone(),
                estimate,
                key,
            });
        }
    }
    for (i, score) in scores.into_iter().enumerate() {
        walker.set_score(i, score);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftes_model::{samples, Mapping, Time};
    use ftes_opt::{EngineKind, PolicyMoves, SearchConfig, Synthesized};
    use ftes_tdma::Platform;

    #[test]
    fn indexed_parallel_preserves_order() {
        for threads in [1, 2, 7] {
            let out = indexed_parallel(100, threads, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
        assert!(indexed_parallel(0, 4, |i| i).is_empty());
    }

    #[test]
    fn batch_matches_fresh_evaluation() {
        let (app, arch) = samples::fig3();
        let node_count = arch.node_count();
        let platform =
            Platform::new(arch, ftes_tdma::TdmaBus::uniform(node_count, Time::new(8)).unwrap())
                .unwrap();
        let mapping = Mapping::cheapest(&app, platform.architecture()).unwrap();
        let k = 2;
        let initial = Synthesized::evaluate(
            &app,
            &platform,
            mapping,
            PolicyAssignment::uniform_reexecution(&app, k),
            k,
        )
        .unwrap();
        let config = SearchConfig { neighborhood: 24, seed: 3, ..SearchConfig::default() };
        let mut evaluator = SystemEvaluator::new(&app, &platform, k);
        let cache = EstimateCache::new();
        let mut archive = ParetoArchive::new();
        let mut fresh = SystemEvaluator::new(&app, &platform, k);
        let mut proposals = 0;
        for round in 0..2 {
            // The second round re-samples the same neighborhood from the
            // same seed: every proposal hits the first round's entries.
            let mut walker =
                Walker::new(EngineKind::Tabu, &app, k, initial.clone(), PolicyMoves::Full, config);
            walker.sample(&app, platform.architecture());
            score_neighborhood(&mut walker, &mut evaluator, &cache, &mut archive);
            assert!(!walker.proposals().is_empty());
            for state in walker.proposals() {
                let expected = fresh.evaluate(&state.copies, &state.policies).unwrap();
                assert_eq!(state.estimate, expected, "round {round}");
            }
            proposals = walker.proposals().len() as u64;
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 2 * proposals);
        assert!(stats.hits >= proposals, "the repeated neighborhood is answered from the cache");
        // The kernel scored the first neighborhood only (repeats of a key
        // within it included); the second came from the cache.
        assert_eq!(evaluator.stats().batch_candidates, proposals);
        assert_eq!(evaluator.stats().batch_evals, 1);
        assert!(!archive.is_empty());
    }
}
