//! `pipebench` — the end-to-end pipeline benchmark.
//!
//! ```text
//! pipebench --workload NAME --seed N --seconds N --trace 0|1 [--smoke]
//! ```
//!
//! Generates the named workload from the seed, drives it through the
//! public APIs for the given number of seconds, checks every output
//! (determinism, the independent oracle) and prints a scorecard followed,
//! as the last line, by one JSON object: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.

mod calib;
mod explore;
mod layers;
mod oracle;
mod serve;
mod stats;
mod synth;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// The workloads, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["synth_corpus", "explore_scale", "serve_mix"];

/// End-to-end metrics (untraced runs) with their units. Every workload
/// reports each of them for its own unit operation; see README.md.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("wcl_ratio_geomean", "ratio"),
];

/// Per-layer metrics (traced runs) with their units.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("spec.parse_us_p50", "us"),
    ("kernel.new_us_p50", "us"),
    ("kernel.batch_candidates", "count/op"),
    ("kernel.batches", "count/op"),
    ("kernel.candidates_per_batch", "count"),
    ("opt.self_ms_p50", "ms"),
    ("opt.share", "ratio"),
    ("opt.ns_per_candidate", "ns"),
    ("opt.iters", "count/op"),
    ("opt.accept_ratio", "ratio"),
    ("opt.repair_rounds", "count/op"),
    ("certify.share", "ratio"),
    ("certify.memo_hit_ratio", "ratio"),
    ("certify.incremental", "count/op"),
    ("certify.prune", "count/op"),
    ("certify.subtree_hit", "count/op"),
    ("certify.certified_pct", "%"),
    ("ftcpg.build_ms", "ms/op"),
    ("ftcpg.nodes", "count"),
    ("ftcpg.over_budget_ms", "ms/op"),
    ("ftcpg.over_budget_share", "ratio"),
    ("exact.schedule_ms", "ms/op"),
    ("exact.share", "ratio"),
    ("explore.search_s", "s"),
    ("explore.candidates", "count/op"),
    ("explore.cache_hit_ratio", "ratio"),
    ("jobs.render_us_p50", "us"),
    ("jobs.journal_append_us_p50", "us"),
    ("jobs.journal_append_us_p90", "us"),
    ("jobs.journal_bytes_per_job", "B"),
    ("jobs.queue_wait_ms_p50", "ms"),
    ("jobs.roundtrip_ms_p50", "ms"),
    ("serve.request_us_p50", "us"),
    ("serve.wait_us_p50", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.bank_hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("obs.overhead_pct", "%"),
    ("obs.dropped_events", "count"),
    ("obs.trace_ops", "count"),
    ("ledger.unattributed_pct", "%"),
    ("ledger.root_s", "s"),
];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
    /// Tiny inputs that run in seconds (exercises the full path).
    pub smoke: bool,
}

impl Opts {
    /// Measured time of one pass: the traced run spends half of its
    /// budget untraced (the overhead baseline) and half traced.
    pub fn pass_budget(&self) -> Duration {
        if self.trace {
            self.seconds / 2
        } else {
            self.seconds
        }
    }

    /// Set-up repetitions whose median is `setup_s`.
    pub fn setup_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            5
        }
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (timed operations plus oracle replays).
    pub attempted: u64,
    /// Attempted operations that failed: errors, non-deterministic
    /// outputs and results the oracle found unsound.
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub problems: Vec<String>,
    /// End-to-end metrics (filled by every run).
    pub end_to_end: Metrics,
    /// Per-layer metrics (filled by traced runs).
    pub per_layer: Metrics,
    /// Scorecard-only lines: workload-specific names and diagnostics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records one failed operation.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Adds a scorecard line.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push(format!("{name:<28} {value:>14.4} {unit}"));
    }
}

/// Deterministic 64-bit generator (SplitMix64) for workload generation.
pub struct Rng(u64);

impl Rng {
    /// A generator for one named input stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        rng.next_u64();
        rng
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform float in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Runs `setup` `reps` times and keeps the last result; returns it with
/// the median set-up time in seconds, at nominal machine speed (a probe
/// before every set-up and after the last, one factor from all of them).
pub fn setup_median<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut probes = vec![calib::probe()];
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup()?);
        times.push(started.elapsed().as_secs_f64());
        probes.push(calib::probe());
    }
    let factor = calib::pass_factor(&probes);
    Ok((last.expect("at least one set-up ran"), stats::median(&times) * factor))
}

/// Tracing overhead (percent) from per-operation times, at nominal machine
/// speed, of an untraced and a traced pass over the same inputs in the same
/// order: one `(untraced, traced)` pair per caller, each compared on its
/// common prefix.
pub fn overhead_pct(callers: &[(&[f64], &[f64])]) -> f64 {
    let (mut base, mut with) = (0.0, 0.0);
    for (untraced, traced) in callers {
        let n = untraced.len().min(traced.len());
        base += untraced[..n].iter().sum::<f64>();
        with += traced[..n].iter().sum::<f64>();
    }
    100.0 * (stats::ratio(with, base) - 1.0)
}

/// Fills the latency and throughput end-to-end metrics from a pass's
/// operation times at nominal machine speed; the scorecard also gets the
/// raw figures and the machine's speed factor.
pub fn latency_metrics(out: &mut Outcome, t: &calib::Timings) {
    let ms: Vec<f64> = t.normalized.iter().map(|s| s * 1e3).collect();
    out.end_to_end.insert("p50_ms", stats::median(&ms));
    out.end_to_end.insert("p90_ms", stats::percentile(&ms, 90.0).unwrap_or(0.0));
    out.end_to_end.insert("ops_per_s", stats::ratio(ms.len() as f64, t.normalized_elapsed));
    let tail = match stats::tail_percentile(ms.len()) {
        Some(p) => format!(
            "p{p} = {:.4} ms ({} samples beyond)",
            stats::percentile(&ms, p).unwrap_or(0.0),
            stats::beyond(ms.len(), p)
        ),
        None => "none (fewer than 20 samples)".into(),
    };
    out.notes.push(format!("{:<28} {} samples; tail {tail}", "latency", ms.len()));
    out.note("raw_p50_ms", stats::median(&t.raw) * 1e3, "ms");
    out.note("raw_p90_ms", stats::percentile(&t.raw, 90.0).unwrap_or(0.0) * 1e3, "ms");
    out.note("raw_ops_per_s", stats::ratio(t.raw.len() as f64, t.raw_elapsed), "1/s");
    out.note("speed_factor", stats::median(&t.factors), "x");
    out.note("steal_pct", 100.0 * t.steal, "%");
}

fn render_json(out: &Outcome, table: &[(&str, &str)], metrics: &Metrics) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    for (i, (name, unit)) in table.iter().enumerate() {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        // `+ 0.0` turns the -0.0 of an empty sum into 0.
        let value = if value.is_finite() { value + 0.0 } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("pipebench: {e}");
            std::process::exit(2);
        }
    };
    let result = match opts.workload.as_str() {
        "synth_corpus" => synth::run(&opts),
        "explore_scale" => explore::run(&opts),
        _ => serve::run(&opts),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("pipebench: {}: {e}", opts.workload);
            std::process::exit(1);
        }
    };
    out.note("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    for problem in &out.problems {
        eprintln!("FAIL {problem}");
    }
    out.note("error_pct", 100.0 * stats::ratio(out.failed as f64, out.attempted as f64), "%");
    let (table, metrics): (&[(&str, &str)], _) =
        if opts.trace { (&PER_LAYER, &out.per_layer) } else { (&END_TO_END, &out.end_to_end) };
    debug_assert!(metrics.keys().all(|k| table.iter().any(|(n, _)| n == k)), "unlisted metric");
    println!(
        "pipebench {} seed={} seconds={:.1} trace={} smoke={}",
        opts.workload,
        opts.seed,
        opts.seconds.as_secs_f64(),
        u8::from(opts.trace),
        opts.smoke
    );
    for (name, unit) in table {
        println!("  {name:<28} {:>14.4} {unit}", metrics.get(name).copied().unwrap_or(0.0) + 0.0);
    }
    for note in &out.notes {
        println!("  {note}");
    }
    println!("{}", render_json(&out, table, metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let opts =
            parse_args(&args("--workload serve_mix --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!((opts.workload.as_str(), opts.seed, opts.trace), ("serve_mix", 7, true));
        assert_eq!(opts.pass_budget(), Duration::from_secs(5));
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 1 --trace 0")).is_err());
        assert!(parse_args(&args("--workload serve_mix --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload serve_mix --seconds 1 --trace 0")).is_err());
    }

    #[test]
    fn overhead_compares_the_common_prefix() {
        assert!((overhead_pct(&[(&[1.0, 1.0, 5.0], &[1.1, 1.1])]) - 10.0).abs() < 1e-9);
        // Two callers: each compared on its own prefix, then summed.
        let two: [(&[f64], &[f64]); 2] = [(&[1.0, 9.0], &[1.5]), (&[2.0], &[1.5, 7.0])];
        assert!((overhead_pct(&two) - 0.0).abs() < 1e-9);
        assert_eq!(overhead_pct(&[(&[], &[1.0])]), 0.0 - 100.0);
    }

    #[test]
    fn json_line_lists_every_metric_of_the_table() {
        let mut out = Outcome { attempted: 3, ..Outcome::default() };
        out.end_to_end.insert("p50_ms", 1.25);
        let line = render_json(&out, &END_TO_END, &out.end_to_end);
        let json = ftes::obs::validate::parse_json(&line).unwrap();
        assert_eq!(json.get("attempted").and_then(|v| v.as_num()), Some(3.0));
        let metrics = json.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let m = metrics.get(name).unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(|u| u.as_str()), Some(unit));
        }
        assert_eq!(metrics.get("p50_ms").unwrap().get("value").unwrap().as_num(), Some(1.25));
    }

    /// `BENCHMARK.json` and the tables above name the same metrics,
    /// units and workloads.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let json = ftes::obs::validate::parse_json(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            match json.get(key) {
                Some(ftes::obs::validate::Json::Arr(items)) => items
                    .iter()
                    .map(|m| {
                        let field =
                            |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                        (field("name"), field("unit"))
                    })
                    .collect(),
                _ => panic!("{key} is not an array"),
            }
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
