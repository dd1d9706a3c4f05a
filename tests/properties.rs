//! Property-based tests of the core invariants, spanning crates.

use ftes::ft::{PolicyAssignment, RecoveryScheme};
use ftes::ftcpg::{
    build_ftcpg, enumerate_scenarios, BuildConfig, CopyMapping, CpgNodeId, Guard, Literal,
};
use ftes::gen::{generate_application, GeneratorConfig};
use ftes::model::{FaultModel, Mapping, Time, Transparency};
use ftes::sched::{schedule_ftcpg, SchedConfig};
use ftes::sim::simulate;
use ftes::tdma::{Platform, TdmaBus};
use proptest::prelude::*;

fn guard_of(literals: std::collections::BTreeMap<usize, bool>) -> Guard {
    Guard::of(literals.into_iter().map(|(v, f)| Literal { cond: CpgNodeId::new(v), fault: f }))
}

fn guard_strategy() -> impl Strategy<Value = Guard> {
    // Up to 5 literals over 8 condition variables, consistent by
    // construction (one polarity per variable).
    proptest::collection::btree_map(0usize..8, any::<bool>(), 0..5).prop_map(guard_of)
}

fn long_guard_strategy() -> impl Strategy<Value = Guard> {
    // Up to 24 literals over 32 condition variables: the guard lengths of
    // deep FT-CPG contexts.
    proptest::collection::btree_map(0usize..32, any::<bool>(), 0..25).prop_map(guard_of)
}

/// `b` with every condition it shares with `a` set to `a`'s polarity: a
/// guard consistent with `a`. Two independent long guards almost always
/// contradict each other; this gives the consistent case its share.
fn aligned_with(a: &Guard, b: &Guard) -> Guard {
    Guard::of(
        b.literals()
            .iter()
            .map(|&l| a.literals().iter().copied().find(|m| m.cond == l.cond).unwrap_or(l)),
    )
}

fn hash_of(g: &Guard) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    g.hash(&mut h);
    h.finish()
}

/// The conjunction laws every pair of guards obeys.
fn conjunction_laws(a: &Guard, b: &Guard) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.excludes(b), b.excludes(a), "exclusion is symmetric");
    prop_assert!(!a.excludes(a), "a guard never excludes itself");
    prop_assert_eq!(a.and(b), b.and(a), "conjunction is commutative");
    prop_assert!(a.implies(a));
    prop_assert_eq!(a.excludes(b), a.and(b).is_none(), "excludes is a failed conjunction");
    prop_assert_eq!(
        a.and_fault_count(b),
        a.and(b).map(|g| g.fault_count()),
        "the scan counts the faults of the conjunction it does not build"
    );
    if let Some(ab) = a.and(b) {
        prop_assert!(ab.implies(a) && ab.implies(b));
        prop_assert_eq!(
            ab.fault_count() as usize,
            ab.literals().iter().filter(|l| l.fault).count()
        );
        // The same literal set built another way: equal, same hash, and
        // ordered equal.
        let rebuilt = Guard::of(ab.literals().iter().rev().copied());
        prop_assert_eq!(&rebuilt, &ab);
        prop_assert_eq!(hash_of(&rebuilt), hash_of(&ab));
        prop_assert_eq!(rebuilt.cmp(&ab), std::cmp::Ordering::Equal);
    }
    Ok(())
}

proptest! {
    /// Guard exclusivity is symmetric and irreflexive; conjunction is
    /// commutative; implication is reflexive and consistent with `and`;
    /// `excludes` and `and_fault_count` agree with the built conjunction;
    /// `and_literal` leaves the guard it extends (and every clone sharing
    /// its literals) unchanged; equal literal sets hash and order equal.
    #[test]
    fn guard_algebra(
        a in guard_strategy(),
        b in guard_strategy(),
        long_a in long_guard_strategy(),
        long_b in long_guard_strategy(),
        cond in 0usize..40,
        fault in any::<bool>(),
    ) {
        conjunction_laws(&a, &b)?;
        conjunction_laws(&long_a, &long_b)?;
        conjunction_laws(&long_a, &aligned_with(&long_a, &long_b))?;

        let lit = Literal { cond: CpgNodeId::new(cond), fault };
        let shared = long_a.clone();
        let before = long_a.literals().to_vec();
        let extended = shared.and_literal(lit);
        prop_assert_eq!(shared.literals(), &before[..], "and_literal changed its receiver");
        prop_assert_eq!(long_a.literals(), &before[..], "and_literal changed a shared clone");
        prop_assert_eq!(extended.clone(), long_a.and(&Guard::of([lit])));
        if let Some(g) = extended {
            prop_assert!(g.implies(&long_a) && g.literals().contains(&lit));
        }
    }

    /// W(x, h) is monotone in the fault count and bounded below by E(x);
    /// the closed-form local optimum matches an exhaustive scan.
    #[test]
    fn recovery_algebra(
        c in 1i64..500,
        alpha in 0i64..50,
        mu in 0i64..50,
        chi in 0i64..50,
        h in 0u32..8,
        x in 0u32..12,
    ) {
        let s = RecoveryScheme::new(
            Time::new(c), Time::new(alpha), Time::new(mu), Time::new(chi),
        ).expect("positive wcet");
        prop_assert!(s.worst_case_time(x, h) >= s.fault_free_time(x));
        prop_assert!(s.worst_case_time(x, h + 1) > s.worst_case_time(x, h));
        if h > 0 && alpha + chi > 0 {
            let best = s.optimal_checkpoints_local(h, 32);
            let scan = (0..=32u32)
                .min_by_key(|&n| (s.worst_case_time(n, h), n))
                .expect("non-empty");
            prop_assert_eq!(s.worst_case_time(best, h), s.worst_case_time(scan, h));
        }
    }

    /// Every generated application yields a structurally sound FT-CPG:
    /// acyclic edges, guards within the budget, scenario census bounded by
    /// the product of chain lengths, all scenarios consistent.
    #[test]
    fn generated_ftcpgs_are_sound(seed in 0u64..30, n in 4usize..10, k in 0u32..3) {
        let config = GeneratorConfig::new(n, 2);
        let app = generate_application(&config, seed).expect("generated");
        let arch = ftes::model::Architecture::homogeneous(2).expect("arch");
        let mapping = Mapping::cheapest(&app, &arch).expect("mapping");
        let policies = PolicyAssignment::uniform_reexecution(&app, k);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies)
            .expect("placement");
        let cpg = build_ftcpg(
            &app, &policies, &copies, FaultModel::new(k),
            &Transparency::none(), BuildConfig::default(),
        ).expect("FT-CPG");
        prop_assert!(cpg.check_invariants().is_ok());
        let scenarios = enumerate_scenarios(&cpg, 1_000_000).expect("bounded");
        prop_assert!(!scenarios.is_empty());
        for s in &scenarios {
            prop_assert!(s.is_consistent(&cpg));
            prop_assert!(s.fault_count() <= k);
        }
    }

    /// For every generated instance and every fault scenario, the scheduled
    /// replay is causally sound, completes, and stays within the worst-case
    /// schedule length.
    #[test]
    fn schedules_sound_under_all_scenarios(seed in 0u64..15, k in 0u32..3) {
        let app = generate_application(&GeneratorConfig::new(6, 2), seed).expect("generated");
        let arch = ftes::model::Architecture::homogeneous(2).expect("arch");
        let mapping = Mapping::cheapest(&app, &arch).expect("mapping");
        let policies = PolicyAssignment::uniform_reexecution(&app, k);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies)
            .expect("placement");
        let cpg = build_ftcpg(
            &app, &policies, &copies, FaultModel::new(k),
            &Transparency::none(), BuildConfig::default(),
        ).expect("FT-CPG");
        let platform = Platform::new(
            ftes::model::Architecture::homogeneous(2).expect("arch"),
            TdmaBus::uniform(2, Time::new(8)).expect("bus"),
        ).expect("platform");
        let schedule = schedule_ftcpg(&app, &cpg, &platform, SchedConfig::default())
            .expect("schedulable");
        for scenario in enumerate_scenarios(&cpg, 200_000).expect("bounded") {
            let report = simulate(&app, &cpg, &schedule, scenario).expect("replay");
            prop_assert!(report.completed, "every scenario delivers");
            prop_assert!(report.makespan <= schedule.length());
        }
    }

    /// The TDMA bus window function is sound: windows start at or after the
    /// ready time, lie inside a slot of the sender, and are minimal with
    /// respect to one-unit earlier requests.
    #[test]
    fn tdma_windows_are_sound(
        nodes in 1usize..5,
        slot in 2i64..20,
        sender in 0usize..5,
        ready in 0i64..200,
        dur in 1i64..10,
    ) {
        prop_assume!(sender < nodes);
        prop_assume!(dur <= slot);
        let bus = TdmaBus::uniform(nodes, Time::new(slot)).expect("bus");
        let w = bus.next_window(
            ftes::model::NodeId::new(sender), Time::new(ready), Time::new(dur),
        ).expect("window exists");
        prop_assert!(w.start >= Time::new(ready));
        prop_assert_eq!(w.duration(), Time::new(dur));
        // The window lies within one slot occurrence of the sender.
        let round = bus.round_length().units();
        let offset = w.start.units().rem_euclid(round);
        let slot_start = (sender as i64) * slot;
        prop_assert!(offset >= slot_start && offset + dur <= slot_start + slot,
            "window [{},{}) inside slot", w.start, w.end);
    }

    /// Merged periodic applications preserve per-instance release/deadline
    /// windows and total process counts.
    #[test]
    fn hyperperiod_merge_is_consistent(p1 in 1i64..5, p2 in 1i64..5) {
        let make = |name: &str, period: i64| {
            let mut b = ftes::model::ApplicationBuilder::new(1);
            b.add_process(ftes::model::ProcessSpec::uniform(
                format!("{name}0"), Time::new(1), 1,
            ));
            b.deadline(Time::new(period)).period(Time::new(period)).build().expect("valid")
        };
        let a = make("a", p1 * 10);
        let b = make("b", p2 * 10);
        let merged = ftes::model::merge_applications(&[a, b]).expect("merged");
        let hyper = merged.period().units();
        prop_assert_eq!(hyper % (p1 * 10), 0);
        prop_assert_eq!(hyper % (p2 * 10), 0);
        let expected = hyper / (p1 * 10) + hyper / (p2 * 10);
        prop_assert_eq!(merged.process_count() as i64, expected);
        for (_, p) in merged.processes() {
            prop_assert!(p.release() < merged.period());
            prop_assert!(p.local_deadline().expect("window deadline") <= merged.period());
        }
    }
}

/// Brute-force adversary for [`ftes::sched::worst_case_delivery`]: try every
/// fault allocation explicitly.
fn brute_force_delivery(
    ladders: &[ftes::sched::ReplicaLadder],
    budget: u32,
) -> Option<ftes::model::Time> {
    fn rec(
        ladders: &[ftes::sched::ReplicaLadder],
        i: usize,
        budget: u32,
        alive_min: Option<ftes::model::Time>,
        worst: &mut Option<Option<ftes::model::Time>>,
    ) {
        if i == ladders.len() {
            // `None` alive_min = all dead; adversary prefers that outcome.
            let outcome = alive_min;
            *worst = Some(match worst.take() {
                None => outcome,
                Some(None) => None,
                Some(Some(w)) => outcome.map(|o| w.max(o)),
            });
            return;
        }
        let l = &ladders[i];
        for f in 0..=budget.min(l.ladder.len() as u32) {
            if (f as usize) < l.ladder.len() {
                let t = l.ladder[f as usize];
                let m = Some(alive_min.map_or(t, |a| a.min(t)));
                rec(ladders, i + 1, budget - f, m, worst);
            } else if l.killable {
                rec(ladders, i + 1, budget - f, alive_min, worst);
            }
        }
    }
    let mut worst = None;
    rec(ladders, 0, budget, None, &mut worst);
    worst.flatten()
}

proptest! {
    /// The join analysis matches a brute-force adversary on random replica
    /// sets.
    #[test]
    fn join_analysis_matches_brute_force(
        ladder_lens in proptest::collection::vec(1usize..4, 1..4),
        raw_times in proptest::collection::vec(1i64..300, 12),
        killable in proptest::collection::vec(any::<bool>(), 4),
        budget in 0u32..5,
    ) {
        let mut cursor = 0;
        let ladders: Vec<ftes::sched::ReplicaLadder> = ladder_lens
            .iter()
            .enumerate()
            .map(|(j, &len)| {
                let mut ladder: Vec<ftes::model::Time> = (0..len)
                    .map(|_| {
                        let t = raw_times[cursor % raw_times.len()];
                        cursor += 1;
                        Time::new(t)
                    })
                    .collect();
                ladder.sort();
                ftes::sched::ReplicaLadder { ladder, killable: killable[j % killable.len()] }
            })
            .collect();
        let fast = ftes::sched::worst_case_delivery(&ladders, budget);
        let brute = brute_force_delivery(&ladders, budget);
        prop_assert_eq!(fast, brute);
    }

    /// Schedule-table CSV export round-trips entry counts for generated
    /// systems, and every CSV line carries a valid node column.
    #[test]
    fn csv_export_is_complete(seed in 0u64..10) {
        let app = generate_application(&GeneratorConfig::new(6, 2), seed).expect("generated");
        let arch = ftes::model::Architecture::homogeneous(2).expect("arch");
        let mapping = Mapping::cheapest(&app, &arch).expect("mapping");
        let policies = PolicyAssignment::uniform_reexecution(&app, 1);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).expect("placement");
        let cpg = build_ftcpg(
            &app, &policies, &copies, FaultModel::new(1),
            &Transparency::none(), BuildConfig::default(),
        ).expect("FT-CPG");
        let platform = Platform::homogeneous(2, Time::new(8)).expect("platform");
        let schedule = schedule_ftcpg(&app, &cpg, &platform, SchedConfig::default())
            .expect("schedule");
        let tables = ftes::sched::ScheduleTables::new(&app, &cpg, &schedule, 2);
        let csv = ftes::sched::export::tables_to_csv(&tables, &cpg);
        prop_assert_eq!(csv.lines().count(), tables.entry_count() + 1);
        for line in csv.lines().skip(1) {
            prop_assert!(line.starts_with("N0,") || line.starts_with("N1,"));
        }
    }

    /// Scenario counting matches enumeration on generated FT-CPGs.
    #[test]
    fn scenario_count_matches_enumeration(seed in 0u64..12, k in 0u32..3) {
        let app = generate_application(&GeneratorConfig::new(6, 2), seed).expect("generated");
        let arch = ftes::model::Architecture::homogeneous(2).expect("arch");
        let mapping = Mapping::cheapest(&app, &arch).expect("mapping");
        let policies = PolicyAssignment::uniform_reexecution(&app, k);
        let copies = CopyMapping::from_base(&app, &arch, &mapping, &policies).expect("placement");
        let cpg = build_ftcpg(
            &app, &policies, &copies, FaultModel::new(k),
            &Transparency::none(), BuildConfig::default(),
        ).expect("FT-CPG");
        let counted = ftes::ftcpg::count_scenarios(&cpg);
        let listed = enumerate_scenarios(&cpg, 10_000_000).expect("bounded").len();
        prop_assert_eq!(counted, listed as u128);
    }
}
