//! The traced run's span model: a background collector folding the
//! `ftes_obs` event stream into completed spans and counter totals, plus
//! the interval arithmetic behind self times and the unattributed ledger.
//!
//! Spans come from two sources that share one stream: the program's own
//! `ftes_obs` spans (parse, synthesize, optimize, certify, cpg, schedule,
//! job.run, journal.append, serve.request) and the benchmark-side spans in
//! [`names`] that wrap each public call the benchmark makes.

use ftes::obs::{self, EventKind, TraceEvent};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Benchmark-side span names (recorded through `ftes_obs::span`, so they
/// interleave with the program's spans on the same threads).
pub mod names {
    /// One spec through parse → kernel → flow → render (synth_corpus root).
    pub const SYNTH: &str = "bench.synth";
    /// `SystemEvaluator::new` (the kernel layer's construction).
    pub const KERNEL_NEW: &str = "bench.kernel_new";
    /// `render_synthesis` (the jobs layer's result renderer).
    pub const RENDER: &str = "bench.render";
    /// One `run_suite` call over the workload's grid (explore_scale root).
    pub const SUITE: &str = "bench.suite";
    /// One client HTTP exchange, connect → full reply (serve_mix root).
    pub const HTTP: &str = "bench.http";
    /// One asynchronous job, submit → terminal poll (serve_mix root).
    pub const JOB: &str = "bench.job";
}

/// One completed span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRec {
    /// Span name (a program or benchmark-side constant).
    pub name: &'static str,
    /// Recording thread.
    pub tid: u32,
    /// Open time, ns since the trace epoch.
    pub start: u64,
    /// Close time, ns since the trace epoch.
    pub end: u64,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The span as a half-open interval.
    pub fn interval(&self) -> (u64, u64) {
        (self.start, self.end)
    }
}

/// Everything one traced measurement recorded.
#[derive(Debug, Default)]
pub struct Trace {
    /// Completed spans, in completion order per thread.
    pub spans: Vec<SpanRec>,
    /// Counter totals by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Timestamps of `job.queued` events (matched FIFO against `job.run`).
    pub queued_at: Vec<u64>,
    /// Events the program's ring buffers dropped while this trace ran.
    pub dropped: u64,
}

impl Trace {
    /// Spans with the given name.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a SpanRec> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Durations (ns) of the spans with the given name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.dur() as f64).collect()
    }

    /// A counter total (0 when never recorded).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

#[derive(Default)]
struct Accumulator {
    stacks: HashMap<u32, Vec<(&'static str, u64)>>,
    trace: Trace,
}

impl Accumulator {
    fn fold(&mut self, events: Vec<TraceEvent>) {
        for e in events {
            match e.kind {
                EventKind::Begin => self.stacks.entry(e.tid).or_default().push((e.name, e.ts_ns)),
                EventKind::End => {
                    if let Some((name, start)) = self.stacks.entry(e.tid).or_default().pop() {
                        self.trace.spans.push(SpanRec { name, tid: e.tid, start, end: e.ts_ns });
                    }
                }
                EventKind::Count => {
                    *self.trace.counters.entry(e.name).or_insert(0) += e.value;
                    if e.name == obs::names::JOB_QUEUED {
                        self.trace.queued_at.push(e.ts_ns);
                    }
                }
            }
        }
    }
}

/// Turns tracing on and drains the per-thread rings from a background
/// thread every millisecond, so busy producers never overflow them.
pub struct Collector {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Accumulator>,
    dropped_before: u64,
}

impl Collector {
    /// Discards stale events, enables tracing and starts draining.
    pub fn start() -> Collector {
        drop(obs::drain());
        let dropped_before = obs::dropped_events();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        obs::set_enabled(true);
        let handle = std::thread::spawn(move || {
            let mut acc = Accumulator::default();
            while !flag.load(Ordering::Acquire) {
                acc.fold(obs::drain());
                std::thread::sleep(Duration::from_millis(1));
            }
            acc
        });
        Collector { stop, handle, dropped_before }
    }

    /// Disables tracing, drains what is left and returns the trace. Call it
    /// only once every traced call has returned.
    pub fn finish(self) -> Trace {
        obs::set_enabled(false);
        self.stop.store(true, Ordering::Release);
        let mut acc = self.handle.join().expect("trace collector thread panicked");
        acc.fold(obs::drain());
        let mut trace = acc.trace;
        trace.dropped = obs::dropped_events().saturating_sub(self.dropped_before);
        trace
    }
}

/// Sorts and merges intervals into disjoint, ascending ones.
fn merged(intervals: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut sorted: Vec<(u64, u64)> = intervals.iter().copied().filter(|(s, e)| e > s).collect();
    sorted.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for (s, e) in sorted {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Length of the union of `intervals`.
pub fn union_len(intervals: &[(u64, u64)]) -> u64 {
    merged(intervals).iter().map(|(s, e)| e - s).sum()
}

/// Length of the part of `union(a)` that `union(b)` also covers.
pub fn covered_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (a, b) = (merged(a), merged(b));
    let (mut i, mut j, mut total) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        total += hi.saturating_sub(lo);
        if a[i].1 < b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// The enclosing span of every span: the innermost span on the same thread
/// whose interval contains it (nesting is per thread, so spans on other
/// threads are never parents).
pub fn parents(spans: &[SpanRec]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| (spans[i].tid, spans[i].start, std::cmp::Reverse(spans[i].end)));
    let mut parent = vec![None; spans.len()];
    let mut open: Vec<usize> = Vec::new();
    let mut tid = None;
    for i in order {
        let span = spans[i];
        if tid != Some(span.tid) {
            open.clear();
            tid = Some(span.tid);
        }
        while open.last().is_some_and(|&p| spans[p].end < span.end) {
            open.pop();
        }
        parent[i] = open.last().copied();
        open.push(i);
    }
    parent
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (see [`parents`]).
pub fn self_times(spans: &[SpanRec], parents: &[Option<usize>]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for (i, parent) in parents.iter().enumerate() {
        if let Some(p) = *parent {
            children[p].push(spans[i].interval());
        }
    }
    spans.iter().zip(&children).map(|(s, c)| s.dur().saturating_sub(union_len(c))).collect()
}

/// Share (percent) of the end-to-end time — the union of the workload's
/// root intervals — that no layer interval covers.
pub fn unattributed_pct(roots: &[(u64, u64)], layers: &[(u64, u64)]) -> f64 {
    let total = union_len(roots);
    if total == 0 {
        return 0.0;
    }
    100.0 * (total - covered_len(roots, layers)) as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, tid: u32, start: u64, end: u64) -> SpanRec {
        SpanRec { name, tid, start, end }
    }

    #[test]
    fn union_merges_overlaps_and_ignores_empty() {
        assert_eq!(union_len(&[]), 0);
        assert_eq!(union_len(&[(0, 10), (5, 15), (20, 30), (30, 31), (7, 7)]), 26);
        assert_eq!(covered_len(&[(0, 100)], &[(10, 20), (15, 30), (90, 120)]), 30);
        assert_eq!(covered_len(&[(0, 10), (20, 30)], &[(5, 25)]), 10);
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = [
            span("root", 1, 0, 100),
            span("a", 1, 10, 30),
            span("leaf", 1, 12, 20),
            span("b", 1, 40, 70),
            // Another thread's span inside root's interval is not a child.
            span("other", 2, 0, 90),
        ];
        let parents = parents(&spans);
        assert_eq!(parents, vec![None, Some(0), Some(1), Some(0), None]);
        assert_eq!(self_times(&spans, &parents), vec![50, 12, 8, 30, 90]);
    }

    #[test]
    fn self_time_handles_siblings_touching_and_disjoint_roots() {
        let spans =
            [span("p", 7, 0, 10), span("c1", 7, 0, 5), span("c2", 7, 5, 10), span("q", 7, 20, 30)];
        assert_eq!(self_times(&spans, &parents(&spans)), vec![0, 5, 5, 10]);
    }

    #[test]
    fn unattributed_counts_root_time_outside_every_layer() {
        // Two roots (100 + 50 ns, overlapping by 10) and layers covering
        // 60 ns of that union (one layer interval sticks out of the roots).
        let roots = [(0, 100), (90, 140)];
        let layers = [(0, 30), (50, 70), (130, 160)];
        assert!((unattributed_pct(&roots, &layers) - 100.0 * 80.0 / 140.0).abs() < 1e-9);
        assert_eq!(unattributed_pct(&roots, &[(0, 200)]), 0.0);
        assert_eq!(unattributed_pct(&roots, &[]), 100.0);
        assert_eq!(unattributed_pct(&[], &layers), 0.0);
    }
}
