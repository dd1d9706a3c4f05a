//! Equality contracts of the allocation-free search step. Each rewritten
//! piece must behave exactly like the code it replaced:
//!
//! * the flat [`CopyMapping::from_base`] (and its in-place twin
//!   [`CopyMapping::rederive`]) places every copy where the nested,
//!   row-per-process reference kept below does;
//! * [`Mapping::with_move`], which validates only the moved process,
//!   returns the same `Result` as [`Mapping::new`] on the edited vector —
//!   `Ok` and every `Err` variant;
//! * [`MoveVocabulary::sample`] draws the same moves as [`sample_move`]
//!   from the same RNG state, and leaves the RNG in the same state;
//! * one search engine: a one-worker, one-round portfolio [`explore`]
//!   returns exactly what the serial [`search`] returns from the same
//!   initial state with the worker's derived seed, neighborhood and tenure,
//!   for every [`EngineKind`], with and without certify-guided admission.

use ftes::explore::{explore, PortfolioConfig, WorkerSpec};
use ftes::ft::{Policy, PolicyAssignment};
use ftes::ftcpg::CopyMapping;
use ftes::gen::{generate_application, GeneratorConfig};
use ftes::model::{
    Application, ApplicationBuilder, Architecture, FaultModel, Mapping, ModelError, NodeId,
    ProcessId, ProcessSpec, Time, Transparency,
};
use ftes::opt::{
    candidate_policies, certify_admits, constructive_mapping, sample_move, search, EngineKind,
    MoveVocabulary, PolicyMoves, SearchConfig, Synthesized,
};
use ftes::sched::{Certifier, CertifyConfig, SystemEvaluator};
use ftes::tdma::Platform;
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The row-per-process placement `CopyMapping::from_base` used before the
/// flat layout: copy 0 on the base node, each replica on the feasible node
/// with the fewest copies of this process so far, then the least
/// accumulated load, then the lowest index.
fn nested_from_base(
    app: &Application,
    arch: &Architecture,
    base: &Mapping,
    policies: &PolicyAssignment,
) -> Vec<Vec<NodeId>> {
    let mut load = vec![Time::ZERO; arch.node_count()];
    for (pid, node) in base.iter() {
        load[node.index()] += base.wcet_of(app, pid);
    }
    let mut rows = Vec::with_capacity(app.process_count());
    for (pid, proc) in app.processes() {
        let copies = policies.policy(pid).copies().len();
        let feasible: Vec<NodeId> = proc.candidate_nodes().collect();
        let mut row = vec![base.node_of(pid)];
        while row.len() < copies {
            let next = feasible
                .iter()
                .copied()
                .min_by_key(|n| {
                    let reuse = row.iter().filter(|&&r| r == *n).count();
                    (reuse, load[n.index()], n.index())
                })
                .expect("validated processes have a feasible node");
            load[next.index()] += proc.wcet_on(next).expect("feasible node");
            row.push(next);
        }
        rows.push(row);
    }
    rows
}

/// A random valid state: every non-fixed process on a random candidate
/// node, every process on a random candidate policy.
fn random_state(
    app: &Application,
    arch: &Architecture,
    k: u32,
    rng: &mut ChaCha8Rng,
) -> (Mapping, PolicyAssignment) {
    let assign = app
        .processes()
        .map(|(_, proc)| {
            proc.fixed_node().unwrap_or_else(|| {
                let nodes: Vec<NodeId> = proc.candidate_nodes().collect();
                nodes[rng.gen_range(0..nodes.len())]
            })
        })
        .collect();
    let mapping = Mapping::new(app, arch, assign).expect("candidate nodes are feasible");
    let policies: Vec<Policy> = app
        .processes()
        .map(|(pid, _)| {
            let cands = candidate_policies(app, pid, k, 8);
            cands[rng.gen_range(0..cands.len())].clone()
        })
        .collect();
    let policies = PolicyAssignment::new(app, policies).expect("one policy per process");
    (mapping, policies)
}

fn generated(seed: u64, n: usize, nodes: usize) -> Application {
    let config = match seed % 3 {
        0 => GeneratorConfig::new(n, nodes),
        1 => GeneratorConfig::chainy(n, nodes),
        _ => GeneratorConfig::wide(n, nodes),
    };
    generate_application(&config, seed).expect("generator configs in range are valid")
}

/// An application with restricted processes: each WCET entry is missing
/// with probability 1/3 (at least one survives), and every fifth process
/// is pinned to one of its feasible nodes.
fn restricted(seed: u64, n: usize, nodes: usize) -> Application {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = ApplicationBuilder::new(nodes);
    for i in 0..n {
        let mut wcet: Vec<Option<Time>> = (0..nodes)
            .map(|_| (rng.gen_range(0..3) > 0).then(|| Time::new(rng.gen_range(5..40))))
            .collect();
        let keep = rng.gen_range(0..nodes);
        wcet[keep].get_or_insert(Time::new(10));
        let mut spec = ProcessSpec::new(format!("P{i}"), wcet.clone());
        if i % 5 == 4 {
            let feasible: Vec<usize> = (0..nodes).filter(|&j| wcet[j].is_some()).collect();
            spec = spec.fixed_node(NodeId::new(feasible[rng.gen_range(0..feasible.len())]));
        }
        b.add_process(spec);
    }
    b.deadline(Time::new(10_000)).build().expect("valid restricted application")
}

proptest! {
    #[test]
    fn flat_from_base_matches_the_nested_reference(
        seed in 0u64..1000,
        n in 4usize..16,
        node_pick in 0usize..6,
        k in 0u32..4,
    ) {
        // Mostly small architectures (the stack-scratch path), sometimes
        // more nodes than the stack scratch holds (the heap path).
        let nodes = [2, 3, 4, 5, 17, 18][node_pick];
        let app = generated(seed, n, nodes);
        let arch = Architecture::homogeneous(nodes).expect("non-empty architecture");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5eed);
        // One mapping rederived across a chain of states: its buffers carry
        // the previous state's rows, which must never leak through.
        let mut reused = {
            let (mapping, policies) = random_state(&app, &arch, k, &mut rng);
            CopyMapping::from_base(&app, &arch, &mapping, &policies).expect("placement")
        };
        for _ in 0..4 {
            let (mapping, policies) = random_state(&app, &arch, k, &mut rng);
            let rows = nested_from_base(&app, &arch, &mapping, &policies);
            let flat = CopyMapping::from_base(&app, &arch, &mapping, &policies)
                .expect("placement");
            for (pid, _) in app.processes() {
                prop_assert_eq!(flat.copies_of(pid), rows[pid.index()].as_slice());
            }
            reused.rederive(&app, &arch, &mapping, &policies).expect("placement");
            prop_assert_eq!(&reused, &flat);
            let mut cloned_into = CopyMapping::from_base(
                &app, &arch, &mapping, &PolicyAssignment::uniform_reexecution(&app, 0),
            ).expect("placement");
            cloned_into.clone_from(&flat);
            prop_assert_eq!(&cloned_into, &flat);
            let explicit = CopyMapping::new(&app, &policies, rows.clone()).expect("valid rows");
            prop_assert_eq!(&explicit, &flat);
            // Debug prints the nested rows, as the row-per-process layout did.
            prop_assert_eq!(format!("{flat:?}"), format!("CopyMapping {{ rows: {rows:?} }}"));
            prop_assert_eq!(flat.base_mapping(&app, &arch).expect("copy 0 is the base"), mapping);
        }
    }

    #[test]
    fn with_move_matches_mapping_new_on_the_edited_vector(
        seed in 0u64..1000,
        n in 3usize..12,
        nodes in 2usize..5,
    ) {
        let app = restricted(seed, n, nodes);
        let arch = Architecture::homogeneous(nodes).expect("non-empty architecture");
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfeed);
        let (mapping, _) = random_state(&app, &arch, 1, &mut rng);
        let assign: Vec<NodeId> = mapping.iter().map(|(_, node)| node).collect();
        // Every (process, node) pair, including one node past the
        // architecture (UnknownNode), plus one process past the application.
        for p in 0..=n {
            for node in 0..=nodes {
                let (pid, node) = (ProcessId::new(p), NodeId::new(node));
                let expected = if p < n {
                    let mut edited = assign.clone();
                    edited[p] = node;
                    Mapping::new(&app, &arch, edited)
                } else {
                    Err(ModelError::UnknownProcess(pid))
                };
                let moved = mapping.with_move(&app, &arch, pid, node);
                prop_assert_eq!(&moved, &expected, "move P{} -> N{}", p, node.index());
                let mut in_place = mapping.clone();
                let result = in_place.move_process(&app, &arch, pid, node);
                match &expected {
                    Ok(m) => prop_assert_eq!(&in_place, m),
                    Err(e) => {
                        prop_assert_eq!(result.as_ref().err(), Some(e));
                        prop_assert_eq!(&in_place, &mapping, "a failed move leaves the mapping");
                    }
                }
            }
        }
        // A mapping of another application: the arity check reports it,
        // exactly as `Mapping::new` does for the edited vector.
        let other = restricted(seed + 1, n + 2, nodes);
        let mut edited = assign.clone();
        edited[0] = NodeId::new(0);
        prop_assert_eq!(
            mapping.with_move(&other, &arch, ProcessId::new(0), NodeId::new(0)),
            Mapping::new(&other, &arch, edited)
        );
    }

    #[test]
    fn vocabulary_draws_the_same_moves_as_sample_move(
        seed in 0u64..1000,
        n in 3usize..14,
        nodes in 2usize..5,
        k in 0u32..4,
        full in any::<bool>(),
    ) {
        let app = if seed % 2 == 0 { generated(seed, n, nodes) } else { restricted(seed, n, nodes) };
        let arch = Architecture::homogeneous(nodes).expect("non-empty architecture");
        let policy_moves = if full { PolicyMoves::Full } else { PolicyMoves::None };
        let config = SearchConfig { max_checkpoints: 8, ..SearchConfig::default() };
        let vocabulary = MoveVocabulary::new(&app, k, policy_moves, config.max_checkpoints);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xbeef);
        for state in 0..6u64 {
            let (mapping, policies) = random_state(&app, &arch, k, &mut rng);
            let mut reference = ChaCha8Rng::seed_from_u64(seed.wrapping_mul(31) + state);
            let mut precomputed = reference.clone();
            for draw in 0..64 {
                let expected =
                    sample_move(&app, &mapping, &policies, k, policy_moves, config, &mut reference);
                let drawn = vocabulary.sample(&mapping, &policies, &mut precomputed);
                prop_assert_eq!(&drawn, &expected, "state {} draw {}", state, draw);
            }
            // Both consumed the stream identically.
            prop_assert_eq!(reference.next_u64(), precomputed.next_u64());
        }
    }
}

/// The serial search a one-worker portfolio runs: the portfolio's initial
/// state (constructive mapping, uniform re-execution) and the worker's
/// derived seed, neighborhood and tenure.
fn serial_twin(
    app: &Application,
    platform: &Platform,
    k: u32,
    config: &PortfolioConfig,
) -> Synthesized {
    let spec = config.workers[0];
    let mapping = constructive_mapping(app, platform.architecture()).expect("mappable");
    let policies = PolicyAssignment::uniform_reexecution(app, k);
    let initial = Synthesized::evaluate(app, platform, mapping, policies, k).expect("feasible");
    // Worker 0's seed: the golden-ratio mix of master seed and offset.
    let seed = config.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(spec.seed_offset);
    let search_config = SearchConfig {
        iterations: config.iterations_per_round,
        tenure: spec.tenure,
        neighborhood: spec.neighborhood,
        max_checkpoints: config.max_checkpoints,
        seed,
        calibration_milli: 1000,
    };
    let mut evaluator = SystemEvaluator::new(app, platform, k);
    if !config.certify_guided {
        return search(
            &mut evaluator,
            spec.engine,
            initial,
            PolicyMoves::Full,
            search_config,
            None,
        )
        .expect("search runs");
    }
    // The portfolio's certifier: unbudgeted, hard failures admit.
    let mut certifier = Certifier::new(
        app,
        platform,
        FaultModel::new(k),
        &Transparency::none(),
        CertifyConfig { max_exact_runs: u64::MAX, ..CertifyConfig::default() },
    );
    let deadline = app.deadline();
    search(
        &mut evaluator,
        spec.engine,
        initial,
        PolicyMoves::Full,
        search_config,
        Some(&mut |candidate: &Synthesized| {
            Ok(certify_admits(&mut certifier, deadline, candidate).unwrap_or(true))
        }),
    )
    .expect("search runs")
}

#[test]
fn one_worker_explore_equals_the_serial_search() {
    let engines = [EngineKind::Tabu, EngineKind::Anneal, EngineKind::Greedy];
    for (seed, certify_guided) in [(0u64, false), (1, false), (2, true), (3, false)] {
        let app = generated(seed, 12, 3);
        let platform = Platform::homogeneous(3, Time::new(8)).expect("platform");
        let k = if certify_guided { 1 } else { 2 };
        for engine in engines {
            let config = PortfolioConfig {
                workers: vec![WorkerSpec { engine, seed_offset: 7, neighborhood: 16, tenure: 5 }],
                rounds: 1,
                iterations_per_round: 30,
                threads: 1,
                max_checkpoints: 16,
                seed: 41 + seed,
                certify_guided,
            };
            let explored = explore(&app, &platform, k, &config).expect("explore runs").best;
            let serial = serial_twin(&app, &platform, k, &config);
            let label = format!("{engine}, seed {seed}, guided {certify_guided}");
            assert_eq!(explored.mapping, serial.mapping, "{label}");
            assert_eq!(explored.policies, serial.policies, "{label}");
            assert_eq!(explored.estimate, serial.estimate, "{label}");
        }
    }
}
