//! `serve_mix`: an in-process daemon (`ftes_serve::start`, port 0, journal
//! in a work directory) driven closed-loop by two client connections. The
//! seeded mix repeats a hot set, sent verbatim or as a reformatted twin
//! (result-cache hits), and sends never-seen corpus specs either
//! synchronously (misses that run the full flow) or as asynchronous
//! `POST /jobs` round trips (journal appends).

use crate::calib::{Calibrator, StealMeter, Timings};
use crate::oracle::Oracle;
use crate::stats::{geomean, median, percentile, ratio};
use crate::synth::synthesize;
use crate::trace::{names, Collector};
use crate::{latency_metrics, layers, overhead_pct, setup_median, synth, Opts, Outcome, Rng};
use ftes::obs;
use ftes::obs::validate::parse_json;
use ftes::Certification;
use ftes_serve::{request, start, ServeConfig, Server};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Concurrent client connections (the two cores of the reference machine).
const CLIENTS: usize = 2;
/// Distinct hot specs the repeats draw from.
const HOT: usize = 10;
/// Share of operations that repeat a hot spec (cache hits).
///
/// The shares of the mix are assumptions, not measured traffic: neither
/// the paper nor the repository gives a request mix. They make hits about
/// two thirds of the synchronous requests, so that `p50_ms` falls well
/// inside the hit latencies (their 75th percentile) and `p90_ms` well
/// inside the miss latencies (their 70th percentile), away from the
/// boundary between the two.
const HIT_SHARE: f64 = 0.60;
/// Share of operations that send a never-seen spec (cache misses); the
/// rest are asynchronous jobs.
const MISS_SHARE: f64 = 0.30;
/// Master seeds of the unique-spec pool (25 specs each).
const POOL_MASTERS: u64 = 240;
/// Leading pool specs whose replies feed the quality guard (every run
/// consumes at least this many).
const QUALITY_PREFIX: usize = 600;
/// Leading pool specs re-synthesized locally and compared byte for byte.
const CHECKED_MISSES: usize = 10;
/// Job status polling interval.
const POLL: Duration = Duration::from_millis(2);
/// Client socket timeout.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Length of one segment of a pass. Between segments every client stops
/// after its current operation, so the calibration probe runs while the
/// daemon idles and reads the machine's speed, not the daemon's load.
const SEGMENT: Duration = Duration::from_secs(1);
/// Input stream of the first client's operation mix.
const CLIENT_STREAM: u64 = 100;

/// Directory (under the working directory) for the daemon's journal.
const WORK_DIR: &str = ".bench_work";

/// A running daemon with its journal directory; shut down and removed on
/// drop.
struct Daemon {
    server: Option<Server>,
    journal: PathBuf,
}

impl Daemon {
    /// Starts a daemon with an empty journal in a directory of its own.
    fn start(attempt: &mut usize) -> Result<Daemon, String> {
        *attempt += 1;
        let journal = Path::new(WORK_DIR).join(format!("serve-{}-{attempt}", std::process::id()));
        let _ = std::fs::remove_dir_all(&journal);
        std::fs::create_dir_all(&journal).map_err(|e| format!("{}: {e}", journal.display()))?;
        let server = start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: CLIENTS,
            journal_dir: Some(journal.clone()),
            ..ServeConfig::default()
        })
        .map_err(|e| format!("start: {e}"))?;
        Ok(Daemon { server: Some(server), journal })
    }

    fn addr(&self) -> SocketAddr {
        self.server().addr()
    }

    fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until drop")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.journal);
        // Removes the work directory too once no other run is using it.
        let _ = std::fs::remove_dir(WORK_DIR);
    }
}

/// The request inputs.
struct Inputs {
    /// Hot specs: `[verbatim, reformatted twin]`.
    hot: Vec<[String; 2]>,
    /// Never-seen specs; client `c` of `CLIENTS` sends entries `c`,
    /// `c + CLIENTS`, … in order, as misses and jobs.
    pool: Vec<String>,
}

fn setup(opts: &Opts, attempt: &mut usize) -> Result<(Inputs, Daemon), String> {
    let hot_texts = synth::corpus(Rng::new(opts.seed, 3).next_u64(), 1)?;
    let hot = hot_texts
        .into_iter()
        .take(HOT)
        .map(|text| {
            let twin = format!("# reformatted twin\n\n{}\n\n# end of twin\n", text.trim_end());
            [text, twin]
        })
        .collect();
    let pool = synth::corpus(
        Rng::new(opts.seed, 4).next_u64(),
        if opts.smoke { 1 } else { POOL_MASTERS },
    )?;
    Ok((Inputs { hot, pool }, Daemon::start(attempt)?))
}

/// Sends every hot spec once, untimed; returns the replies, which later
/// repeats must answer byte for byte.
fn warm_up(addr: SocketAddr, hot: &[[String; 2]]) -> Result<Vec<String>, String> {
    let mut replies = Vec::with_capacity(hot.len());
    for [text, _] in hot {
        let (status, body) = http(addr, "POST", "/synthesize", text)?;
        if status != 200 {
            return Err(format!("warm-up answered {status}: {body}"));
        }
        replies.push(body);
    }
    Ok(replies)
}

/// One client HTTP exchange under a benchmark-side span.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let _span = obs::span(names::HTTP);
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(|e| e.to_string())?;
    request(&stream, method, path, body).map_err(|e| format!("{method} {path}: {e}"))
}

/// Submits a job and polls it to a terminal state; returns the status body.
fn job_round_trip(addr: SocketAddr, spec: &str) -> Result<String, String> {
    let _span = obs::span(names::JOB);
    let (status, body) = http(addr, "POST", "/jobs", spec)?;
    let id = json_field(&body, "job")
        .and_then(|id| id.parse::<u64>().ok())
        .filter(|_| status == 202)
        .ok_or_else(|| format!("submit answered {status}: {body}"))?;
    loop {
        std::thread::sleep(POLL);
        let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), "")?;
        match (status, json_field(&body, "state")) {
            (200, Some("queued" | "running")) => continue,
            (200, Some("completed")) => return Ok(body),
            _ => return Err(format!("job {id} answered {status}: {body}")),
        }
    }
}

/// A reply to a pool spec: the synchronous body, or a job's status body
/// (whose `result` field splices the same bytes verbatim).
struct PoolReply {
    index: usize,
    body: String,
    job: bool,
}

impl PoolReply {
    /// Whether the reply carries exactly the given rendered result.
    fn carries(&self, rendered: &str) -> bool {
        if self.job {
            self.body.contains(&format!("\"result\":{},", rendered.trim_end()))
        } else {
            self.body == rendered
        }
    }
}

/// The text of the first `"key":` value in a reply — a number, or a
/// string's contents — read without parsing the rest of the body (a job
/// status body carries the whole rendered result). Replies are written by
/// `JsonWriter`: no whitespace, and the keys read here never repeat
/// before the one wanted.
fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &body[at..];
    match rest.strip_prefix('"') {
        Some(text) => text.split('"').next(),
        None => rest.split([',', '}']).next(),
    }
}

/// Shipped worst-case length over the deadline, read from a synthesis
/// reply or a job status body.
fn wcl_of(body: &str) -> Option<f64> {
    let field = |k: &str| json_field(body, k)?.parse::<f64>().ok();
    Some(field("worst_case")? / field("deadline")?)
}

/// One client connection's operation stream, carried across segments.
struct Client {
    index: usize,
    rng: Rng,
    /// Pool specs this client has sent.
    unique: usize,
}

impl Client {
    /// The client's next never-seen pool spec: its pool index and text.
    /// Clients take alternate pool entries, so each client's operations
    /// depend only on its own stream, not on how the two interleave.
    fn next_unique<'a>(&mut self, pool: &'a [String]) -> (usize, &'a str) {
        let n = self.unique * CLIENTS + self.index;
        self.unique += 1;
        (n, &pool[n % pool.len()])
    }
}

/// What one client did in one segment.
#[derive(Default)]
struct ClientLog {
    /// Latency of each synchronous request, seconds, and whether it was a
    /// cache hit.
    sync: Vec<(f64, bool)>,
    /// Latency of each job round trip (submit → terminal), seconds.
    jobs: Vec<f64>,
    /// Latency of every operation, in order, seconds, and whether it was a
    /// cache hit.
    ops: Vec<(f64, bool)>,
    attempted: u64,
    problems: Vec<String>,
    /// Replies to the pool's quality prefix.
    pool: Vec<PoolReply>,
}

/// Runs one client's operations until `deadline`; the operation under way
/// at the deadline completes.
fn run_client(
    addr: SocketAddr,
    inputs: &Inputs,
    expected: &[String],
    client: &mut Client,
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    while Instant::now() < deadline {
        log.attempted += 1;
        let started = Instant::now();
        let r = client.rng.unit();
        let reply = if r < HIT_SHARE {
            let i = client.rng.below(inputs.hot.len());
            let twin = client.rng.below(2);
            let reply = http(addr, "POST", "/synthesize", &inputs.hot[i][twin]);
            let took = started.elapsed().as_secs_f64();
            log.sync.push((took, true));
            log.ops.push((took, true));
            match reply {
                Ok((200, body)) if body == expected[i] => {}
                Ok((200, _)) => log.problems.push("hot spec answered different bytes".into()),
                Ok((status, body)) => {
                    log.problems.push(format!("/synthesize answered {status}: {body}"))
                }
                Err(e) => log.problems.push(e),
            }
            continue;
        } else if r < HIT_SHARE + MISS_SHARE {
            let (index, spec) = client.next_unique(&inputs.pool);
            let reply = http(addr, "POST", "/synthesize", spec);
            let took = started.elapsed().as_secs_f64();
            log.sync.push((took, false));
            log.ops.push((took, false));
            match reply {
                Ok((200, body)) => Ok(PoolReply { index, body, job: false }),
                Ok((status, body)) => Err(format!("/synthesize answered {status}: {body}")),
                Err(e) => Err(e),
            }
        } else {
            let (index, spec) = client.next_unique(&inputs.pool);
            let reply = job_round_trip(addr, spec);
            let took = started.elapsed().as_secs_f64();
            log.jobs.push(took);
            log.ops.push((took, false));
            reply.map(|body| PoolReply { index, body, job: true })
        };
        match reply {
            Ok(reply) if reply.index < QUALITY_PREFIX => log.pool.push(reply),
            Ok(_) => {}
            Err(e) => log.problems.push(e),
        }
    }
    log
}

struct Pass {
    /// Synchronous request latencies.
    sync: Timings,
    /// Which synchronous requests were cache hits.
    hits: Vec<bool>,
    /// Job round trips (submit → terminal).
    jobs: Timings,
    /// Every operation of each client, in order, at nominal speed, and
    /// whether it was a cache hit.
    per_client: Vec<Vec<(f64, bool)>>,
    pool: Vec<PoolReply>,
    /// Pool specs sent.
    unique: usize,
}

/// One closed-loop pass of the clients against `daemon` until `budget`,
/// in segments bracketed by calibration probes. Every pass starts the
/// clients' streams afresh, so two passes send the same operations.
fn measure(
    daemon: &Daemon,
    inputs: &Inputs,
    expected: &[String],
    budget: Duration,
    opts: &Opts,
    out: &mut Outcome,
) -> Pass {
    let addr = daemon.addr();
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|index| Client {
            index,
            rng: Rng::new(opts.seed, CLIENT_STREAM + index as u64),
            unique: 0,
        })
        .collect();
    let mut pass = Pass {
        sync: Timings::default(),
        hits: Vec::new(),
        jobs: Timings::default(),
        per_client: vec![Vec::new(); CLIENTS],
        pool: Vec::new(),
        unique: 0,
    };
    let mut calib = Calibrator::on_threads(CLIENTS);
    let started = Instant::now();
    let steal = StealMeter::start();
    while started.elapsed() < budget {
        let segment_started = Instant::now();
        let deadline = (segment_started + SEGMENT).min(started + budget);
        let logs: Vec<ClientLog> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    scope.spawn(move || run_client(addr, inputs, expected, client, deadline))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        let wall = segment_started.elapsed().as_secs_f64();
        // Every client has finished its operations (a job only once it is
        // terminal), so the daemon idles while the probe runs.
        let factor = calib.block_done();
        let (mut sync, mut jobs) = (Vec::new(), Vec::new());
        for (log, ops) in logs.into_iter().zip(&mut pass.per_client) {
            out.attempted += log.attempted;
            for problem in log.problems {
                out.fail(problem);
            }
            sync.extend(log.sync.iter().map(|(t, _)| t));
            pass.hits.extend(log.sync.iter().map(|(_, hit)| hit));
            jobs.extend(log.jobs);
            ops.extend(log.ops.iter().map(|&(t, hit)| (t * factor, hit)));
            pass.pool.extend(log.pool);
        }
        pass.sync.add_block(&sync, wall, factor);
        pass.jobs.add_block(&jobs, wall, factor);
    }
    // Cache hits are sub-millisecond exchanges that steal does not
    // stretch; misses and jobs run the flow and are stretched in full.
    let share = steal.share();
    pass.sync.remove_steal(share, &pass.hits);
    pass.jobs.remove_steal(share, &[]);
    for ops in &mut pass.per_client {
        for (t, hit) in ops.iter_mut() {
            if !*hit {
                *t *= 1.0 - share;
            }
        }
    }
    pass.unique = clients.iter().map(|c| c.unique).sum();
    pass
}

/// Evaluator-bank counters from `GET /metrics` (hits, misses).
fn bank_stats(addr: SocketAddr) -> Result<(f64, f64), String> {
    let (_, body) = http(addr, "GET", "/metrics", "")?;
    let json = parse_json(&body)?;
    let bank = json.get("evaluator_bank").ok_or("no evaluator_bank in /metrics")?;
    let field = |k: &str| bank.get(k).and_then(|v| v.as_num()).unwrap_or(0.0);
    Ok((field("hits"), field("misses")))
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut attempt = 0;
    let ((inputs, daemon), setup_s) =
        setup_median(opts.setup_reps(), || setup(opts, &mut attempt))?;
    let mut out = Outcome::default();
    out.end_to_end.insert("setup_s", setup_s);

    let expected = warm_up(daemon.addr(), &inputs.hot)?;
    let plain = measure(&daemon, &inputs, &expected, opts.pass_budget(), opts, &mut out);
    drop(daemon);
    latency_metrics(&mut out, &plain.sync);
    let mut pool: Vec<&PoolReply> = plain.pool.iter().collect();
    let mut traced_pass = None;

    if opts.trace {
        // A fresh daemon, warmed up the same way, and the same client
        // streams: each client sends the untraced pass's operations again,
        // in the same order, against the same daemon state.
        let daemon = Daemon::start(&mut attempt)?;
        let addr = daemon.addr();
        out.attempted += 1;
        if warm_up(addr, &inputs.hot)? != expected {
            out.fail("a fresh daemon answered the hot specs with different bytes".into());
        }
        let cache_before = daemon.server().cache_stats();
        let rejected_before = daemon.server().metrics().rejected_429;
        let bank_before = bank_stats(addr)?;
        let collector = Collector::start();
        let traced = measure(&daemon, &inputs, &expected, opts.pass_budget(), opts, &mut out);
        let trace = collector.finish();
        let cache_after = daemon.server().cache_stats();
        let bank_after = bank_stats(addr)?;
        let ops = traced.sync.raw.len() + traced.jobs.raw.len();
        let mut m = layers::from_trace(&trace, &[names::HTTP, names::JOB], ops);
        let hits = (cache_after.hits - cache_before.hits) as f64;
        let misses = (cache_after.misses - cache_before.misses) as f64;
        m.insert("serve.cache_hit_ratio", ratio(hits, hits + misses));
        let (bank_hits, bank_misses) = (bank_after.0 - bank_before.0, bank_after.1 - bank_before.1);
        m.insert("serve.bank_hit_ratio", ratio(bank_hits, bank_hits + bank_misses));
        m.insert(
            "serve.rejected",
            (daemon.server().metrics().rejected_429 - rejected_before) as f64,
        );
        m.insert("jobs.roundtrip_ms_p50", median(&traced.jobs.raw) * 1e3);
        let times = |ops: &[(f64, bool)]| ops.iter().map(|(t, _)| *t).collect::<Vec<f64>>();
        let per_client: Vec<(Vec<f64>, Vec<f64>)> = plain
            .per_client
            .iter()
            .zip(&traced.per_client)
            .map(|(untraced, traced)| (times(untraced), times(traced)))
            .collect();
        let callers: Vec<(&[f64], &[f64])> =
            per_client.iter().map(|(u, t)| (u.as_slice(), t.as_slice())).collect();
        m.insert("obs.overhead_pct", overhead_pct(&callers));
        m.insert("obs.trace_ops", ops as f64);
        out.per_layer = m;
        traced_pass = Some(traced);
    }
    // The determinism check below covers the traced pass's replies too.
    let quality = pool.len();
    pool.extend(traced_pass.iter().flat_map(|t| &t.pool));

    // The leading pool specs, re-synthesized locally: the daemon's bytes
    // (synchronous or job) must match, and they go to the oracle.
    let mut oracle = Oracle::default();
    let mut local = Vec::new();
    for n in 0..CHECKED_MISSES.min(inputs.pool.len()) {
        let s = synthesize(&inputs.pool[n])?;
        for reply in pool.iter().filter(|r| r.index == n) {
            out.attempted += 1;
            if !reply.carries(&s.body) {
                out.fail(format!("pool spec #{n}: daemon bytes differ from local synthesis"));
            }
        }
        if let (Certification::Certified { .. }, Some(exact)) = (s.psi.certification, &s.psi.exact)
        {
            out.attempted += 1;
            if !oracle.check(&s.spec.app, &exact.cpg, &exact.schedule, &s.spec.transparency) {
                out.fail(format!("oracle: pool spec #{n} certified but unsound"));
            }
        }
        local.push(s);
    }
    // Quality guard over the hot set and the pool's quality prefix, read
    // from the untraced pass's replies.
    let mut ratios = Vec::new();
    for body in expected.iter().chain(pool[..quality].iter().map(|r| &r.body)) {
        match wcl_of(body) {
            Some(r) => ratios.push(r),
            None => out.fail("a reply lacks worst_case/deadline".into()),
        }
    }
    out.end_to_end.insert("wcl_ratio_geomean", geomean(&ratios).unwrap_or(0.0));
    let certified = local.iter().filter(|s| s.psi.certification.is_certified()).count();
    let certified_pct = 100.0 * ratio(certified as f64, local.len() as f64);
    out.per_layer.insert("certify.certified_pct", certified_pct);
    let nodes: Vec<f64> = local
        .iter()
        .filter_map(|s| s.psi.exact.as_ref())
        .map(|e| e.cpg.node_count() as f64)
        .collect();
    out.per_layer.insert("ftcpg.nodes", median(&nodes));

    let jobs_ms: Vec<f64> = plain.jobs.normalized.iter().map(|s| s * 1e3).collect();
    out.note("serve_p50_ms", out.end_to_end["p50_ms"], "ms");
    out.note("serve_p90_ms", out.end_to_end["p90_ms"], "ms");
    out.note("serve_rps", out.end_to_end["ops_per_s"], "1/s");
    out.note("job_p50_ms", median(&jobs_ms), "ms");
    out.note("job_p90_ms", percentile(&jobs_ms, 90.0).unwrap_or(0.0), "ms");
    out.note("jobs", jobs_ms.len() as f64, "count");
    out.note("unique_specs_used", plain.unique as f64, "count");
    out.note("unique_pool", inputs.pool.len() as f64, "count");
    out.note("certified_pct", certified_pct, "%");
    out.note("oracle_replays", oracle.checked() as f64, "count");
    Ok(out)
}
