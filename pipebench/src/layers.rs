//! Per-layer metrics derived from a traced run's spans and counters. Each
//! layer is named after its crate; see README.md for which end-to-end
//! metric each one should move.

use crate::stats::{median, percentile, ratio};
use crate::trace::{self, names, union_len, SpanRec, Trace};
use crate::Metrics;
use ftes::obs::names as obs;

/// Spans that attribute time to a layer below the workload's entry point.
const LAYER_SPANS: [&str; 10] = [
    obs::PARSE,
    names::KERNEL_NEW,
    obs::OPTIMIZE,
    obs::CERTIFY,
    obs::CPG,
    obs::SCHEDULE,
    names::RENDER,
    obs::JOB_RUN,
    obs::JOURNAL_APPEND,
    obs::SERVE_REQUEST,
];

fn intervals<'a>(spans: impl Iterator<Item = &'a SpanRec>) -> Vec<(u64, u64)> {
    spans.map(SpanRec::interval).collect()
}

fn p50_us(trace: &Trace, name: &str) -> f64 {
    median(&trace.durations(name)) / 1e3
}

/// The trace-derived per-layer metrics. `roots` name the spans of the
/// workload's end-to-end operations and `ops` counts those operations;
/// per-operation metrics divide by it.
pub fn from_trace(trace: &Trace, roots: &[&str], ops: usize) -> Metrics {
    let spans = &trace.spans;
    let parents = trace::parents(spans);
    let selfs = trace::self_times(spans, &parents);
    let root_iv = intervals(spans.iter().filter(|s| roots.contains(&s.name)));
    let wall = union_len(&root_iv) as f64;
    // Shares are busy time over the summed root-operation time: with one
    // caller that is the wall time; with concurrent clients a layer busy on
    // several server threads at once still stays below 1.
    let root_total: f64 = root_iv.iter().map(|(s, e)| (e - s) as f64).sum();
    let share = |busy_ns: f64| ratio(busy_ns, root_total);
    let ops = ops.max(1) as f64;
    let per_op = |name: &str| trace.counter(name) as f64 / ops;
    let total_ns = |name: &str| trace.durations(name).iter().sum::<f64>();
    let mut m = Metrics::new();

    m.insert("spec.parse_us_p50", p50_us(trace, obs::PARSE));

    let batches = trace.counter(obs::EVAL_BATCH) as f64;
    let candidates = trace.counter(obs::EVAL_BATCH_CANDIDATES) as f64;
    m.insert("kernel.new_us_p50", p50_us(trace, names::KERNEL_NEW));
    m.insert("kernel.batches", batches / ops);
    m.insert("kernel.batch_candidates", candidates / ops);
    m.insert("kernel.candidates_per_batch", ratio(candidates, batches));

    let opt_self: Vec<f64> = (0..spans.len())
        .filter(|&i| spans[i].name == obs::OPTIMIZE)
        .map(|i| selfs[i] as f64)
        .collect();
    let opt_total: f64 = opt_self.iter().sum();
    m.insert("opt.self_ms_p50", median(&opt_self) / 1e6);
    m.insert("opt.share", share(opt_total));
    m.insert("opt.ns_per_candidate", ratio(opt_total, candidates));
    m.insert("opt.iters", per_op(obs::SEARCH_ITER));
    m.insert(
        "opt.accept_ratio",
        ratio(trace.counter(obs::SEARCH_ACCEPT) as f64, trace.counter(obs::SEARCH_ITER) as f64),
    );
    m.insert("opt.repair_rounds", per_op(obs::REPAIR_ROUND));

    let certifies = trace.named(obs::CERTIFY).count() as f64;
    m.insert("certify.share", share(total_ns(obs::CERTIFY)));
    m.insert(
        "certify.memo_hit_ratio",
        ratio(trace.counter(obs::CERTIFY_MEMO_HIT) as f64, certifies),
    );
    m.insert("certify.incremental", per_op(obs::CERTIFY_INCREMENTAL));
    m.insert("certify.prune", per_op(obs::CERTIFY_PRUNE));
    m.insert("certify.subtree_hit", per_op(obs::CERTIFY_SUBTREE_HIT));

    // An FT-CPG build inside a certification that never reached the exact
    // scheduler ended over the size budget: its time bought no verdict.
    let mut scheduled = vec![false; spans.len()];
    for (i, parent) in parents.iter().enumerate() {
        if let (obs::SCHEDULE, Some(p)) = (spans[i].name, *parent) {
            scheduled[p] = true;
        }
    }
    let over_budget_ns: f64 = (0..spans.len())
        .filter(|&i| {
            spans[i].name == obs::CPG
                && parents[i].is_some_and(|p| spans[p].name == obs::CERTIFY && !scheduled[p])
        })
        .map(|i| spans[i].dur() as f64)
        .sum();
    m.insert("ftcpg.build_ms", total_ns(obs::CPG) / ops / 1e6);
    m.insert("ftcpg.over_budget_ms", over_budget_ns / ops / 1e6);
    m.insert("ftcpg.over_budget_share", share(over_budget_ns));

    m.insert("exact.schedule_ms", total_ns(obs::SCHEDULE) / ops / 1e6);
    m.insert("exact.share", share(total_ns(obs::SCHEDULE)));

    let appends = trace.durations(obs::JOURNAL_APPEND);
    m.insert("jobs.render_us_p50", p50_us(trace, names::RENDER));
    m.insert("jobs.journal_append_us_p50", median(&appends) / 1e3);
    m.insert("jobs.journal_append_us_p90", percentile(&appends, 90.0).unwrap_or(0.0) / 1e3);
    m.insert(
        "jobs.journal_bytes_per_job",
        ratio(trace.counter(obs::JOURNAL_BYTES) as f64, trace.counter(obs::JOB_TERMINAL) as f64),
    );
    m.insert("jobs.queue_wait_ms_p50", median(&queue_waits(trace)) / 1e6);

    m.insert("serve.request_us_p50", p50_us(trace, obs::SERVE_REQUEST));
    m.insert("serve.wait_us_p50", median(&client_waits(trace)) / 1e3);

    m.insert("obs.dropped_events", trace.dropped as f64);
    let layer_iv = intervals(spans.iter().filter(|s| LAYER_SPANS.contains(&s.name)));
    m.insert("ledger.unattributed_pct", trace::unattributed_pct(&root_iv, &layer_iv));
    m.insert("ledger.root_s", wall / 1e9);
    m
}

/// Queue waits (ns): the executor runs jobs first-in first-out, so the
/// i-th `job.queued` event belongs to the i-th `job.run` span.
fn queue_waits(trace: &Trace) -> Vec<f64> {
    let mut queued = trace.queued_at.clone();
    queued.sort_unstable();
    let mut runs: Vec<u64> = trace.named(obs::JOB_RUN).map(|s| s.start).collect();
    runs.sort_unstable();
    queued.iter().zip(&runs).map(|(q, r)| r.saturating_sub(*q) as f64).collect()
}

/// Client-side time outside the server's request span (ns), for client
/// exchanges that enclose exactly one server span (so the pairing is
/// unambiguous even with concurrent clients).
fn client_waits(trace: &Trace) -> Vec<f64> {
    let mut server: Vec<&SpanRec> = trace.named(obs::SERVE_REQUEST).collect();
    server.sort_unstable_by_key(|s| s.start);
    trace
        .named(names::HTTP)
        .filter_map(|client| {
            let from = server.partition_point(|s| s.start < client.start);
            let mut inside = server[from..]
                .iter()
                .take_while(|s| s.start < client.end)
                .filter(|s| s.end <= client.end);
            match (inside.next(), inside.next()) {
                (Some(only), None) => Some(client.dur().saturating_sub(only.dur()) as f64),
                _ => None,
            }
        })
        .collect()
}
