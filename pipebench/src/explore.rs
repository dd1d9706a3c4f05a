//! `explore_scale`: `ftes_explore::run_suite` at two threads over four
//! fixed paper-grid points whose FT-CPG exceeds the build budget, repeated
//! until the budget is spent. The points (one size, four application
//! seeds) are fixed so the estimate-only regime holds on every seed; the
//! seed drives the portfolio search seed, which changes on every
//! repetition so one run samples many search trajectories. The unit
//! operation is one point.

use crate::calib::{self, StealMeter, Timings};
use crate::oracle::Oracle;
use crate::stats::{geomean, median, ratio};
use crate::trace::{covered_len, names, Collector};
use crate::{latency_metrics, layers, overhead_pct, setup_median, Opts, Outcome, Rng};
use ftes::explore::{
    run_suite, CacheStats, CertifyVerdict, PointOutcome, PortfolioConfig, ScenarioPoint,
    SuiteConfig, SuiteOutcome,
};
use ftes::ftcpg::{build_ftcpg, BuildConfig, CopyMapping};
use ftes::gen::{generate_application, GeneratorConfig};
use ftes::model::{Application, FaultModel, Time, Transparency};
use ftes::obs;
use ftes::sched::{schedule_ftcpg, SchedConfig};
use ftes::tdma::Platform;
use std::time::{Duration, Instant};

/// Load threads of the suite (the two cores of the reference machine).
const THREADS: usize = 2;
/// TDMA slot length of the generated platforms (the suite default).
const SLOT: i64 = 8;
/// Calibration probes after every grid, and the pause before each: probe
/// times switch between two modes within milliseconds, so probes spread
/// over the pause sample both.
const PROBES_PER_GRID: usize = 8;
const PROBE_GAP: Duration = Duration::from_millis(10);

fn point(processes: usize, nodes: usize, k: u32, seed: u64) -> ScenarioPoint {
    ScenarioPoint { processes, nodes, k, seed }
}

/// Large points whose FT-CPG exceeds the build budget (estimate-only).
/// They share one size so their times form one distribution: points of
/// different sizes form separate clusters, and the percentiles of a run's
/// few dozen points then fall inside one cluster of a few samples.
fn points(smoke: bool) -> Vec<ScenarioPoint> {
    if smoke {
        vec![point(60, 5, 5, 0)]
    } else {
        (0..4).map(|seed| point(80, 5, 5, seed)).collect()
    }
}

/// The grid, the run's seed and each point's regenerated application and
/// platform (the oracle replays certified winners against them, should a
/// point ever fit the budget).
struct Setup {
    base: SuiteConfig,
    seed: u64,
    systems: Vec<(Application, Platform)>,
}

impl Setup {
    /// The suite of the `repetition`-th grid: same points, its own
    /// portfolio seed.
    fn suite(&self, repetition: u64) -> SuiteConfig {
        let mut config = self.base.clone();
        config.portfolio.seed = Rng::new(self.seed, 1_000 + repetition).next_u64();
        config
    }
}

fn setup(opts: &Opts) -> Result<Setup, String> {
    let portfolio = if opts.smoke {
        PortfolioConfig { threads: THREADS, ..PortfolioConfig::quick(0) }
    } else {
        PortfolioConfig { threads: THREADS, ..PortfolioConfig::default() }
    };
    let base = SuiteConfig {
        points: points(opts.smoke),
        portfolio,
        point_parallelism: 1,
        slot: Time::new(SLOT),
        verify: None,
        certify: true,
    };
    let systems = base
        .points
        .iter()
        .map(|p| {
            let app = generate_application(&GeneratorConfig::new(p.processes, p.nodes), p.seed)
                .map_err(|e| format!("{}: {e}", p.label()))?;
            let platform = Platform::homogeneous(p.nodes, base.slot).map_err(|e| e.to_string())?;
            Ok((app, platform))
        })
        .collect::<Result<_, String>>()?;
    Ok(Setup { base, seed: opts.seed, systems })
}

/// The deterministic part of a point's outcome: everything except the
/// wall clock and the thread-dependent evaluator counters.
fn verdict(p: &PointOutcome) -> impl PartialEq + '_ {
    (
        p.point,
        (p.fault_free, p.worst_case, p.deadline, p.schedulable),
        (p.certified, p.verified, p.demoted, &p.front_certified),
        p.archive.signature(),
    )
}

struct Pass {
    grids: Vec<SuiteOutcome>,
    /// Point walls (`PointOutcome::wall`): the unit operation is one point.
    timings: Timings,
}

/// Runs grid repetitions 0, 1, 2, … while the budget lasts; the next one
/// starts only if a grid as long as the last would still fit. Probes on
/// the suite's thread count follow every grid; the pass gets one speed
/// factor from all of them (see [`calib::pass_factor`]).
fn measure(setup: &Setup, budget: Duration, out: &mut Outcome) -> Pass {
    let mut probes = Vec::new();
    let probe = |probes: &mut Vec<f64>| {
        for _ in 0..PROBES_PER_GRID {
            std::thread::sleep(PROBE_GAP);
            probes.push(calib::probe_on(THREADS));
        }
    };
    probe(&mut probes);
    let started = Instant::now();
    let steal = StealMeter::start();
    let mut grids = Vec::new();
    let mut walls = Vec::new();
    let mut point_walls = Vec::new();
    for repetition in 0.. {
        let config = setup.suite(repetition);
        out.attempted += config.points.len() as u64;
        let grid_started = Instant::now();
        let result = {
            let _span = obs::span(names::SUITE);
            run_suite(&config)
        };
        let wall = grid_started.elapsed().as_secs_f64();
        match result {
            Ok(outcome) => {
                walls.push(wall);
                point_walls.extend(outcome.points.iter().map(|p| p.wall.as_secs_f64()));
                probe(&mut probes);
                grids.push(outcome);
            }
            Err(e) => {
                out.fail(format!("run_suite: {e}"));
                break;
            }
        }
        if started.elapsed().as_secs_f64() + wall > budget.as_secs_f64() {
            break;
        }
    }
    let factor = calib::pass_factor(&probes);
    let mut timings = Timings::default();
    timings.add_block(&point_walls, walls.iter().sum(), factor);
    timings.remove_steal(steal.share(), &[]);
    Pass { grids, timings }
}

/// Same points, same seed, same results: compares the deterministic part
/// of each point (never the wall clock or the thread-dependent evaluator
/// counters) and the suite signature.
fn same_outcome(a: &SuiteOutcome, b: &SuiteOutcome) -> bool {
    a.signature() == b.signature()
        && a.points.len() == b.points.len()
        && a.points.iter().zip(&b.points).all(|(x, y)| verdict(x) == verdict(y))
}

/// Shipped worst-case length over the deadline: exact when certification
/// computed one, else the estimate.
fn wcl_ratio(p: &PointOutcome) -> f64 {
    p.certified.exact_len().unwrap_or(p.worst_case).as_f64() / p.deadline.as_f64()
}

/// Replays every Pareto entry the suite tagged certified on an FT-CPG and
/// schedule rebuilt here from the entry's mapping and policies.
fn oracle_point(
    p: &PointOutcome,
    app: &Application,
    platform: &Platform,
    oracle: &mut Oracle,
    out: &mut Outcome,
) {
    let fault_model = FaultModel::new(p.point.k);
    let transparency = Transparency::none();
    for (entry, tag) in p.archive.entries().iter().zip(&p.front_certified) {
        if *tag != Some(true) {
            continue;
        }
        out.attempted += 1;
        let rebuilt =
            CopyMapping::from_base(app, platform.architecture(), &entry.mapping, &entry.policies)
                .map_err(|e| e.to_string())
                .and_then(|copies| {
                    build_ftcpg(
                        app,
                        &entry.policies,
                        &copies,
                        fault_model,
                        &transparency,
                        BuildConfig::default(),
                    )
                    .map_err(|e| e.to_string())
                })
                .and_then(|cpg| {
                    let schedule = schedule_ftcpg(app, &cpg, platform, SchedConfig::default())
                        .map_err(|e| e.to_string())?;
                    Ok((cpg, schedule))
                });
        match rebuilt {
            Ok((cpg, schedule)) => {
                if !oracle.check(app, &cpg, &schedule, &transparency) {
                    out.fail(format!("oracle: {} certified front entry unsound", p.point.label()));
                }
            }
            Err(e) => out.fail(format!("oracle: {} rebuild failed: {e}", p.point.label())),
        }
    }
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let (setup, setup_s) = setup_median(opts.setup_reps(), || setup(opts))?;
    let mut out = Outcome::default();
    out.end_to_end.insert("setup_s", setup_s);

    let plain = measure(&setup, opts.pass_budget(), &mut out);
    let Some(first) = plain.grids.first() else {
        return Err("no grid completed".into());
    };
    latency_metrics(&mut out, &plain.timings);

    if opts.trace {
        let collector = Collector::start();
        let traced = measure(&setup, opts.pass_budget(), &mut out);
        let trace = collector.finish();
        // The traced pass repeats the untraced pass's grids, seed for seed.
        for (a, b) in plain.grids.iter().zip(&traced.grids) {
            out.attempted += 1;
            if !same_outcome(a, b) {
                out.fail("a repeated grid gave a different suite outcome".into());
            }
        }
        let points = traced.timings.raw.len();
        let mut m = layers::from_trace(&trace, &[names::SUITE], points);
        let certify: Vec<(u64, u64)> =
            trace.named(obs::names::CERTIFY).map(|s| s.interval()).collect();
        let search: Vec<f64> = trace
            .named(names::SUITE)
            .map(|s| (s.dur() - covered_len(&[s.interval()], &certify)) as f64 / 1e9)
            .collect();
        m.insert("explore.search_s", median(&search));
        let candidates: u64 = traced.grids.iter().map(|g| g.total_evals().evaluations()).sum();
        m.insert("explore.candidates", ratio(candidates as f64, points as f64));
        let cache =
            traced.grids.iter().fold(CacheStats::default(), |acc, g| acc.merged(g.total_cache()));
        m.insert("explore.cache_hit_ratio", cache.hit_rate());
        m.insert(
            "obs.overhead_pct",
            overhead_pct(&[(&plain.timings.normalized, &traced.timings.normalized)]),
        );
        m.insert("obs.trace_ops", points as f64);
        out.per_layer = m;
    }

    // Determinism, outside the timed region: the first point of the first
    // grid again, alone (each point's result depends only on its own seed).
    let mut again = setup.suite(0);
    again.points.truncate(1);
    out.attempted += 1;
    match run_suite(&again) {
        Ok(repeat) => {
            let same = repeat.signature()[0] == first.signature()[0]
                && verdict(&repeat.points[0]) == verdict(&first.points[0]);
            if !same {
                out.fail("a repeated grid point gave a different outcome".into());
            }
        }
        Err(e) => out.fail(format!("run_suite repeat: {e}")),
    }

    // Quality guards and the oracle over the first grid.
    let ratios: Vec<f64> = first.points.iter().map(wcl_ratio).collect();
    out.end_to_end.insert("wcl_ratio_geomean", geomean(&ratios).unwrap_or(0.0));
    let certified = first.points.iter().filter(|p| p.certified.is_certified()).count();
    let certified_pct = 100.0 * ratio(certified as f64, first.points.len() as f64);
    out.per_layer.insert("certify.certified_pct", certified_pct);
    let mut oracle = Oracle::default();
    for (p, (app, platform)) in first.points.iter().zip(&setup.systems) {
        if p.certified.is_certified() {
            oracle_point(p, app, platform, &mut oracle, &mut out);
        }
    }

    let verdicts = |f: fn(&CertifyVerdict) -> bool| {
        first.points.iter().filter(|p| f(&p.certified)).count() as f64
    };
    let grid_s = plain.timings.normalized_elapsed / plain.grids.len() as f64;
    out.note("explore_grid_s", grid_s, "s");
    out.note("grids", plain.grids.len() as f64, "count");
    out.note("certified_pct", certified_pct, "%");
    out.note("refuted_points", verdicts(|v| matches!(v, CertifyVerdict::Refuted(_))), "count");
    out.note("skipped_points", verdicts(|v| matches!(v, CertifyVerdict::Skipped)), "count");
    out.note("oracle_replays", oracle.checked() as f64, "count");
    Ok(out)
}
