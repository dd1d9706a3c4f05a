//! `synth_corpus`: generated corpus specs, one caller, closed loop —
//! `parse_spec` → `SystemEvaluator::new` → `synthesize_system_timed` →
//! `render_synthesis`, the path the CLI, the corpus runner and
//! `/synthesize` share.

use crate::calib::{Calibrator, StealMeter, Timings};
use crate::oracle::Oracle;
use crate::stats::{geomean, median, ratio};
use crate::trace::{names, Collector};
use crate::{latency_metrics, layers, overhead_pct, setup_median, Opts, Outcome, Rng};
use ftes::gen::corpus::{generate_corpus, Family};
use ftes::sched::SystemEvaluator;
use ftes::spec::{parse_spec, SystemSpec};
use ftes::{
    obs, synthesize_system_timed, Certification, FlowConfig, FlowTimings, SystemConfiguration,
};
use ftes_jobs::render_synthesis;
use std::time::{Duration, Instant};

/// Master seeds per run (each yields five members of each of the five
/// families: 25 specs). 800 specs take about one timed run, so each seed
/// samples the families' cost distribution widely.
const MASTERS: u64 = 32;
/// Leading specs of the run order whose results are kept: the quality
/// guards and the oracle cover exactly these, so they do not depend on how
/// far a run gets.
const QUALITY_PREFIX: usize = 400;
/// Leading specs synthesized again after the timed region; their bytes
/// must not change.
const REPEATS: usize = 8;

/// The seeded corpus in a seeded order.
pub fn corpus(seed: u64, masters: u64) -> Result<Vec<String>, String> {
    let mut rng = Rng::new(seed, 1);
    let mut texts = Vec::new();
    for _ in 0..masters {
        let specs = generate_corpus(&Family::ALL, rng.next_u64()).map_err(|e| e.to_string())?;
        texts.extend(specs.into_iter().map(|s| s.text));
    }
    rng.shuffle(&mut texts);
    Ok(texts)
}

/// One spec through the whole flow.
pub struct Synthesis {
    /// The parsed spec.
    pub spec: SystemSpec,
    /// The synthesized configuration ψ.
    pub psi: SystemConfiguration,
    /// The rendered result document.
    pub body: String,
    /// The flow's own phase breakdown.
    pub timings: FlowTimings,
}

/// Runs one spec through parse → kernel → flow → render, each public call
/// under a benchmark-side span (inert while tracing is off).
pub fn synthesize(text: &str) -> Result<Synthesis, String> {
    let _op = obs::span(names::SYNTH);
    let spec = parse_spec(text).map_err(|e| format!("parse: {e}"))?;
    let mut evaluator = {
        let _span = obs::span(names::KERNEL_NEW);
        SystemEvaluator::new(&spec.app, &spec.platform, spec.fault_model.k())
    };
    let config = FlowConfig { strategy: spec.strategy, ..FlowConfig::default() };
    let (psi, timings) =
        synthesize_system_timed(&mut evaluator, spec.fault_model, &spec.transparency, config)
            .map_err(|e| format!("synthesis: {e}"))?;
    let body = {
        let _span = obs::span(names::RENDER);
        render_synthesis(&spec, &psi)
    };
    Ok(Synthesis { spec, psi, body, timings })
}

/// Shipped worst-case length over the deadline.
pub fn wcl_ratio(s: &Synthesis) -> f64 {
    s.psi.worst_case_length().as_f64() / s.spec.app.deadline().as_f64()
}

/// First results of the quality prefix, kept for the determinism and
/// oracle checks.
struct Ledger {
    first: Vec<Option<Synthesis>>,
    flow: FlowTimings,
}

impl Ledger {
    /// Keeps a prefix spec's first result, or checks a repetition against it.
    fn keep(&mut self, index: usize, s: Synthesis, out: &mut Outcome) {
        match self.first.get_mut(index) {
            Some(slot @ None) => *slot = Some(s),
            Some(Some(first)) if first.body != s.body => {
                out.fail(format!("spec #{index}: rendered bytes differ between repetitions"))
            }
            _ => {}
        }
    }
}

/// Specs between two calibration probes.
const BLOCK: Duration = Duration::from_millis(100);

/// One closed-loop pass over the specs in corpus order (wrapping) until
/// `budget`, in blocks bracketed by calibration probes.
fn measure(corpus: &[String], budget: Duration, ledger: &mut Ledger, out: &mut Outcome) -> Timings {
    let started = Instant::now();
    let steal = StealMeter::start();
    let mut calib = Calibrator::new();
    let mut timings = Timings::default();
    let mut i = 0;
    while started.elapsed() < budget {
        let block_started = Instant::now();
        let mut block = Vec::new();
        while block_started.elapsed() < BLOCK && started.elapsed() < budget {
            let index = i % corpus.len();
            i += 1;
            out.attempted += 1;
            let op = Instant::now();
            let result = synthesize(&corpus[index]);
            block.push(op.elapsed().as_secs_f64());
            match result {
                Err(e) => out.fail(format!("spec #{index}: {e}")),
                Ok(s) => {
                    let t = s.timings;
                    ledger.flow.optimize += t.optimize;
                    ledger.flow.certify += t.certify;
                    ledger.flow.cpg += t.cpg;
                    ledger.flow.schedule += t.schedule;
                    ledger.keep(index, s, out);
                }
            }
        }
        let wall = block_started.elapsed().as_secs_f64();
        timings.add_block(&block, wall, calib.block_done());
    }
    timings.remove_steal(steal.share(), &[]);
    timings
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let masters = if opts.smoke { 1 } else { MASTERS };
    let (mut texts, setup_s) = setup_median(opts.setup_reps(), || corpus(opts.seed, masters))?;
    if opts.smoke {
        texts.truncate(4);
    }
    let mut out = Outcome::default();
    out.end_to_end.insert("setup_s", setup_s);
    let kept = texts.len().min(QUALITY_PREFIX);
    let mut ledger =
        Ledger { first: (0..kept).map(|_| None).collect(), flow: FlowTimings::default() };

    let plain = measure(&texts, opts.pass_budget(), &mut ledger, &mut out);
    latency_metrics(&mut out, &plain);
    if opts.trace {
        let collector = Collector::start();
        let traced = measure(&texts, opts.pass_budget(), &mut ledger, &mut out);
        let trace = collector.finish();
        out.per_layer = layers::from_trace(&trace, &[names::SYNTH], traced.raw.len());
        out.per_layer
            .insert("obs.overhead_pct", overhead_pct(&[(&plain.normalized, &traced.normalized)]));
        out.per_layer.insert("obs.trace_ops", traced.raw.len() as f64);
    }

    // Determinism, outside the timed region: the leading specs again.
    for (index, text) in texts.iter().enumerate().take(REPEATS) {
        out.attempted += 1;
        match synthesize(text) {
            Ok(s) => ledger.keep(index, s, &mut out),
            Err(e) => out.fail(format!("spec #{index} repeat: {e}")),
        }
    }

    // Quality guards and the oracle, over the prefix's first results.
    let results: Vec<&Synthesis> = ledger.first.iter().flatten().collect();
    let ratios: Vec<f64> = results.iter().map(|s| wcl_ratio(s)).collect();
    out.end_to_end.insert("wcl_ratio_geomean", geomean(&ratios).unwrap_or(0.0));
    let certified = results.iter().filter(|s| s.psi.certification.is_certified()).count();
    let certified_pct = 100.0 * ratio(certified as f64, results.len() as f64);
    out.per_layer.insert("certify.certified_pct", certified_pct);
    let nodes: Vec<f64> = results
        .iter()
        .filter_map(|s| s.psi.exact.as_ref())
        .map(|e| e.cpg.node_count() as f64)
        .collect();
    out.per_layer.insert("ftcpg.nodes", median(&nodes));
    let mut oracle = Oracle::default();
    for s in &results {
        if let Certification::Certified { .. } = s.psi.certification {
            out.attempted += 1;
            let Some(exact) = s.psi.exact.as_ref() else {
                out.fail("certified result carries no exact schedule".into());
                continue;
            };
            if !oracle.check(&s.spec.app, &exact.cpg, &exact.schedule, &s.spec.transparency) {
                out.fail(format!(
                    "oracle: certified result unsound (deadline {})",
                    s.spec.app.deadline()
                ));
            }
        }
    }

    out.note("synth_p50_ms", out.end_to_end["p50_ms"], "ms");
    out.note("synth_p90_ms", out.end_to_end["p90_ms"], "ms");
    out.note("synth_specs_per_s", out.end_to_end["ops_per_s"], "1/s");
    out.note("certified_pct", certified_pct, "%");
    out.note("quality_specs", results.len() as f64, "count");
    out.note("oracle_exhaustive", oracle.exhaustive as f64, "count");
    out.note("oracle_sampled", oracle.sampled as f64, "count");
    let flow = ledger.flow;
    let flow_total = (flow.optimize + flow.certify + flow.cpg + flow.schedule).as_secs_f64();
    out.note("flow.optimize_share", ratio(flow.optimize.as_secs_f64(), flow_total), "ratio");
    out.note("flow.certify_share", ratio(flow.certify.as_secs_f64(), flow_total), "ratio");
    Ok(out)
}
