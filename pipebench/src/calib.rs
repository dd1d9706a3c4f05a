//! Machine-speed calibration. The virtual machines this benchmark runs on
//! change speed by ±20% within seconds and between runs, which no amount
//! of averaging inside one run removes. A fixed probe — standard-library
//! work only, so no change to the program under test can move it — is
//! timed between blocks of operations, and every timing end-to-end metric
//! is reported at the probe's nominal speed: each block's times are
//! multiplied by `NOMINAL_PROBE_S / probe`, with `probe` the mean of the
//! probes before and after the block, or, in a pass of few or short
//! blocks, the mean of all the pass's probes. The share of the pass's CPU
//! time the hypervisor stole is then taken out as well.

use crate::stats::{median, ratio};
use crate::Rng;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Probe time on the reference machine (two-vCPU Intel Xeon, 2.1 GHz), so
/// normalized and raw figures agree there at its usual speed.
pub const NOMINAL_PROBE_S: f64 = 0.57e-3;

/// Probes per calibration point (their median is used).
const PROBES: usize = 3;

/// One probe: allocation, ordered-map inserts and lookups, sorting and
/// formatting — the mix of work the synthesis pipeline does.
fn probe_once() -> f64 {
    let started = Instant::now();
    let mut rng = Rng::new(0x0c0f_fee0, 7);
    let mut map = BTreeMap::new();
    for _ in 0..2_000 {
        map.insert(rng.next_u64() % 50_000, rng.next_u64());
    }
    let mut values: Vec<u64> = map.values().copied().collect();
    values.sort_unstable();
    let hits = (0..2_000).filter(|_| map.contains_key(&(rng.next_u64() % 50_000))).count();
    let text: String = values.iter().take(500).map(|v| format!("{v:x},")).collect();
    black_box((hits, text.len()));
    started.elapsed().as_secs_f64()
}

/// The median of a few probes, in seconds.
pub fn probe() -> f64 {
    let times: Vec<f64> = (0..PROBES).map(|_| probe_once()).collect();
    median(&times)
}

/// The mean of [`probe`] run on `threads` threads at once, in seconds: the
/// speed of the machine when that many cores are busy.
pub fn probe_on(threads: usize) -> f64 {
    if threads <= 1 {
        return probe();
    }
    let times: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(probe)).collect();
        handles.into_iter().map(|h| h.join().expect("probe thread panicked")).collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

/// Speed factor of a block of work between two probes: multiply a measured
/// time by it to get the time at nominal speed.
pub fn factor(before: f64, after: f64) -> f64 {
    NOMINAL_PROBE_S / ((before + after) / 2.0)
}

/// Speed factor of a whole pass from the probes taken between its blocks,
/// for passes of few or short blocks. A single probe is bimodal even on an idle
/// machine (about 0.36 or 0.50 ms, switching within milliseconds), so a
/// factor per long block would add that noise to each block; the mean of
/// all the pass's probes averages the two modes.
pub fn pass_factor(probes: &[f64]) -> f64 {
    NOMINAL_PROBE_S / (probes.iter().sum::<f64>() / probes.len() as f64)
}

/// Probes between consecutive blocks of work.
pub struct Calibrator {
    threads: usize,
    last: f64,
}

impl Calibrator {
    /// Takes the first probe, on one thread.
    pub fn new() -> Calibrator {
        Calibrator::on_threads(1)
    }

    /// Takes the first probe; every probe runs on `threads` threads at
    /// once, for work that keeps that many cores busy.
    pub fn on_threads(threads: usize) -> Calibrator {
        Calibrator { threads, last: probe_on(threads) }
    }

    /// Probes after a block of work; returns the block's speed factor.
    pub fn block_done(&mut self) -> f64 {
        let now = probe_on(self.threads);
        let f = factor(self.last, now);
        self.last = now;
        f
    }
}

/// Per-operation times of one pass, raw and at nominal speed.
#[derive(Debug, Default)]
pub struct Timings {
    /// Raw operation times, seconds, in completion order per block.
    pub raw: Vec<f64>,
    /// The same times at nominal speed.
    pub normalized: Vec<f64>,
    /// Raw wall time of the blocks, seconds.
    pub raw_elapsed: f64,
    /// Wall time of the blocks at nominal speed, seconds.
    pub normalized_elapsed: f64,
    /// Speed factor of every block.
    pub factors: Vec<f64>,
    /// Share of the pass's CPU time stolen by the hypervisor, taken out of
    /// the normalized times.
    pub steal: f64,
}

impl Timings {
    /// Adds one block: its operations' raw times, its wall time and its
    /// speed factor.
    pub fn add_block(&mut self, ops: &[f64], wall: f64, factor: f64) {
        self.raw.extend_from_slice(ops);
        self.normalized.extend(ops.iter().map(|t| t * factor));
        self.raw_elapsed += wall;
        self.normalized_elapsed += wall * factor;
        self.factors.push(factor);
    }

    /// Takes the share of the pass's CPU time the hypervisor stole out of
    /// the normalized times and elapsed time. Operations marked in `short`
    /// (indexed like [`Timings::raw`]; empty marks none) keep their times:
    /// steal comes in time slices of milliseconds, so it stretches long
    /// computations in proportion but leaves the median of
    /// sub-millisecond exchanges alone.
    pub fn remove_steal(&mut self, share: f64, short: &[bool]) {
        let keep = 1.0 - share;
        for (i, t) in self.normalized.iter_mut().enumerate() {
            if !short.get(i).copied().unwrap_or(false) {
                *t *= keep;
            }
        }
        self.normalized_elapsed *= keep;
        self.steal = share;
    }
}

/// Steal time: CPU time the hypervisor gave to other guests while this
/// machine's CPUs were runnable (`steal` in `/proc/stat`). It stretches a
/// pass's wall time without the program under test causing it, by up to
/// 18% per grid on the reference machine, and the speed probe, too short
/// to be preempted often, does not see it.
pub struct StealMeter {
    start: Option<(u64, u64)>,
}

impl StealMeter {
    /// Starts measuring.
    pub fn start() -> StealMeter {
        StealMeter { start: cpu_ticks() }
    }

    /// Steal ÷ (busy + steal) over all CPUs since [`StealMeter::start`];
    /// 0 where `/proc/stat` cannot be read.
    pub fn share(&self) -> f64 {
        match (self.start, cpu_ticks()) {
            (Some((busy0, steal0)), Some((busy1, steal1))) => {
                let steal = steal1.saturating_sub(steal0) as f64;
                ratio(steal, busy1.saturating_sub(busy0) as f64 + steal)
            }
            _ => 0.0,
        }
    }
}

fn cpu_ticks() -> Option<(u64, u64)> {
    parse_ticks(std::fs::read_to_string("/proc/stat").ok()?.lines().next()?)
}

/// Busy and steal ticks from the `cpu` line of `/proc/stat`: `user nice
/// system idle iowait irq softirq steal …`.
fn parse_ticks(line: &str) -> Option<(u64, u64)> {
    let f: Vec<u64> =
        line.split_whitespace().skip(1).map(|x| x.parse().ok()).collect::<Option<_>>()?;
    let busy = f.first()? + f.get(1)? + f.get(2)? + f.get(5)? + f.get(6)?;
    Some((busy, *f.get(7)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_nominal_speed() {
        assert!((factor(NOMINAL_PROBE_S, NOMINAL_PROBE_S) - 1.0).abs() < 1e-12);
        // A machine running at half speed: times halve.
        assert!((factor(2.0 * NOMINAL_PROBE_S, 2.0 * NOMINAL_PROBE_S) - 0.5).abs() < 1e-12);
        assert!((factor(NOMINAL_PROBE_S, 3.0 * NOMINAL_PROBE_S) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pass_factor_uses_the_mean_probe() {
        let n = NOMINAL_PROBE_S;
        assert!((pass_factor(&[n, 3.0 * n]) - 0.5).abs() < 1e-12);
        assert!((pass_factor(&[n, n, 4.0 * n]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn steal_ticks_parse_from_the_cpu_line() {
        assert_eq!(parse_ticks("cpu  100 5 20 1000 3 1 2 30 0 0"), Some((128, 30)));
        assert_eq!(parse_ticks("cpu  100 5 20"), None);
        let mut t = Timings::default();
        t.add_block(&[1.0, 3.0], 4.0, 1.0);
        t.remove_steal(0.25, &[]);
        assert_eq!(
            (t.normalized.clone(), t.normalized_elapsed, t.raw_elapsed),
            (vec![0.75, 2.25], 3.0, 4.0)
        );
        let mut t = Timings::default();
        t.add_block(&[1.0, 3.0], 4.0, 1.0);
        t.remove_steal(0.25, &[true, false]);
        assert_eq!((t.normalized.clone(), t.normalized_elapsed), (vec![1.0, 2.25], 3.0));
    }

    #[test]
    fn blocks_scale_their_own_operations() {
        let mut t = Timings::default();
        t.add_block(&[1.0, 2.0], 3.5, 0.5);
        t.add_block(&[4.0], 4.0, 2.0);
        assert_eq!(t.raw, vec![1.0, 2.0, 4.0]);
        assert_eq!(t.normalized, vec![0.5, 1.0, 8.0]);
        assert_eq!((t.raw_elapsed, t.normalized_elapsed), (7.5, 9.75));
        assert_eq!(t.factors, vec![0.5, 2.0]);
    }
}
