//! `serve-mixed`: open-loop `POST /v1/run` traffic against an in-process
//! `Server` (2 sim workers).
//!
//! One generator thread sends on two pipelined keep-alive connections,
//! one per client class, on a seeded Poisson schedule whatever the
//! replies do, so a stall shows as latency of the requests due behind it;
//! one reader thread timestamps the replies as they arrive. Latency is
//! timed from each request's due time.
//!
//! * warm (~90%): Zipf draws over a hot set warmed during set-up; the
//!   server answers them from its memo without simulating.
//! * cold (~10%): never-seen `(app, technique, half_rf, ctas)` keys that
//!   must simulate.
//!
//! The server runs with its shipped defaults but for its 2 sim workers.
//!
//! The untraced run measures the end-to-end metrics on a closed batch of
//! the same mix, [`BATCH_CTAS`] cold grid sizes of every cell plus nine
//! warm draws per cold request, sent at once on the two connections to a
//! fresh server per pass: `setup_s` is the server's start and hot-set
//! warm-up, `wall_s` the time until the last reply. The seed orders the
//! batch and ranks the hot set; what the batch simulates is the same for
//! every seed.
//!
//! The traced run measures the open loop for the server layer. The
//! reference step at [`REFERENCE_RPS`] gives the latency metrics;
//! the climb over [`LADDER_RPS`] gives `server.max_rate_rps`, the highest rate
//! at which warm p99, cold p90 and generator lag stay within their limits
//! with no backlog left at the end of the step. Every request of the
//! reference step must be answered 200; above it a refusal or a missing
//! reply only disqualifies its rate. Every 200 body's stats are checked
//! against a local run of the same request's spec.

use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use regmutex::{Technique, ALL_TECHNIQUES};
use regmutex_bench::{JobSpec, ResultCache, Runner, DEFAULT_CACHE_BUDGET};
use regmutex_server::http::{self, Limits};
use regmutex_server::json;
use regmutex_server::poll::{Epoll, EpollEvent, EPOLLIN};
use regmutex_server::wire::{self, RunRequest};
use regmutex_server::{spec_for_request, Server, ServerConfig};
use regmutex_workloads::suite;

use crate::host::peak_rss_mb;
use crate::layers::Traced;
use crate::outcome::{layer_percentile, passes, Ctx, Outcome};
use crate::paper_matrix::launchable;
use crate::spans::{Profile, Tracer};
use crate::stats::{median, ms, percentile, us, Rng};

/// The reference rate the latency metrics are read at, requests per
/// second.
pub const REFERENCE_RPS: u32 = 800;
/// The capacity ladder, ×1.25 apart. It is climbed until a rung misses a
/// limit (or, should the first rung miss, descended by the same ratio
/// until a rate qualifies); then geometric midpoints bisect the bracket
/// between the highest qualifying rate and the lowest that missed until
/// it is narrower than `BRACKET_RATIO` (two probes inside one rung). A
/// rate misses only if it misses twice, so one stall of the shared host
/// does not end the climb.
pub const LADDER_RPS: [u32; 6] = [2500, 3125, 3906, 4883, 6104, 7629];
const LADDER_RATIO: f64 = 1.25;
const BRACKET_RATIO: f64 = 1.06;
/// Latency limits a rung must meet to count towards `server.max_rate_rps`.
pub const WARM_P99_LIMIT_MS: f64 = 50.0;
pub const COLD_P90_LIMIT_MS: f64 = 100.0;
/// The generator must keep to its schedule for a rung to count.
pub const LAG_P99_LIMIT_MS: f64 = 10.0;
/// Replies still outstanding when a rung's schedule ends; more means the
/// backlog was growing.
pub const BACKLOG_LIMIT: usize = 128;
/// Share of requests in the cold class.
const COLD_SHARE: f64 = 0.10;
/// Hot-set size and its Zipf exponent.
const HOT_KEYS: usize = 48;
const ZIPF_S: f64 = 1.0;
/// Grid sizes for hot keys (1 CTA) and cold keys (2..=MAX_COLD_CTAS):
/// 99 sizes × 155 (app, technique, RF) cells = 15,345 cold keys, enough
/// for a climb at twice the sizing host's capacity.
const MAX_COLD_CTAS: u32 = 100;
/// Step durations: each rung and probe runs `RUNG_SECS`; the
/// reference step gets the run's time budget less `CLIMB_SECS`, at least
/// `MIN_REFERENCE_SECS`.
const MIN_REFERENCE_SECS: f64 = 5.0;
const RUNG_SECS: f64 = 2.0;
const CLIMB_SECS: f64 = 15.0;
/// Grid sizes of the closed batch's cold requests: every (app, technique,
/// RF) cell at each of them.
pub const BATCH_CTAS: [u32; 2] = [8, 24];
/// Warm requests per cold one in the closed batch (the 90/10 mix).
const BATCH_WARM_PER_COLD: usize = 9;
const SIM_WORKERS: usize = 2;
/// How long a step may take to drain before missing replies count as
/// timeouts.
const DRAIN: Duration = Duration::from_secs(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Warm,
    Cold,
}

/// One scheduled request.
#[derive(Debug, Clone)]
pub struct Arrival {
    due: Duration,
    class: Class,
    key: usize,
}

/// The request keys of one run: the hot set, then the cold pool.
pub struct Keys {
    pub reqs: Vec<RunRequest>,
    pub bodies: Vec<Vec<u8>>,
    hot: usize,
    zipf_cdf: Vec<f64>,
}

fn request(app: &str, technique: Technique, half_rf: bool, ctas: u32) -> RunRequest {
    RunRequest {
        app: app.to_string(),
        technique,
        half_rf,
        ctas: Some(ctas),
        force_es: None,
        cycle_budget: None,
        lease: None,
    }
}

impl Keys {
    pub fn new(seed: u64) -> Keys {
        let mut rng = Rng::new(seed, 0x5e7e);
        let mut combos: Vec<(&'static str, Technique, bool)> = Vec::new();
        for w in suite::all() {
            for half in [false, true] {
                if launchable(&w, half) {
                    combos.extend(ALL_TECHNIQUES.map(|t| (w.name, t, half)));
                }
            }
        }
        // The hot set is the same cells for every seed, so the warm-up in
        // set-up simulates the same keys; the seed ranks them for the
        // Zipf draws.
        let mut hot = combos.clone();
        Rng::new(0, 0x407).shuffle(&mut hot);
        hot.truncate(HOT_KEYS);
        rng.shuffle(&mut hot);
        rng.shuffle(&mut combos);
        let mut reqs: Vec<RunRequest> = hot.iter().map(|&(a, t, h)| request(a, t, h, 1)).collect();
        // Cold keys cycle through the grid sizes, each level's (app,
        // technique, RF) order drawn by the seed: any stretch of the run
        // sees the same spread of simulation sizes.
        let levels: Vec<Vec<RunRequest>> = (2..=MAX_COLD_CTAS)
            .map(|ctas| {
                let mut level: Vec<RunRequest> = combos
                    .iter()
                    .map(|&(a, t, h)| request(a, t, h, ctas))
                    .collect();
                rng.shuffle(&mut level);
                level
            })
            .collect();
        for i in 0..combos.len() {
            reqs.extend(levels.iter().map(|level| level[i].clone()));
        }
        let bodies = reqs
            .iter()
            .map(|r| wire::run_request_json(r).encode().into_bytes())
            .collect();
        let weights: Vec<f64> = (1..=HOT_KEYS)
            .map(|k| 1.0 / (k as f64).powf(ZIPF_S))
            .collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let zipf_cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Keys {
            reqs,
            bodies,
            hot: HOT_KEYS,
            zipf_cdf,
        }
    }

    /// The closed batch: each (app, technique, RF) cell at every grid
    /// size of [`BATCH_CTAS`], and [`BATCH_WARM_PER_COLD`] Zipf draws of
    /// the hot set per cold request, all due at once, in seeded order.
    pub fn batch(&self, seed: u64) -> Vec<Arrival> {
        let sizes = MAX_COLD_CTAS as usize - 1;
        let cells = (self.reqs.len() - self.hot) / sizes;
        let mut rng = Rng::new(seed, 0xba7c);
        let mut out = Vec::new();
        for cell in 0..cells {
            for ctas in BATCH_CTAS {
                // Cold key `hot + cell * sizes + (ctas - 2)` is cell-th of
                // the seeded order of the cells at `ctas` CTAs.
                let key = self.hot + cell * sizes + (ctas as usize - 2);
                out.push(Arrival {
                    due: Duration::ZERO,
                    class: Class::Cold,
                    key,
                });
                for _ in 0..BATCH_WARM_PER_COLD {
                    let key = self.zipf(&mut rng);
                    out.push(Arrival {
                        due: Duration::ZERO,
                        class: Class::Warm,
                        key,
                    });
                }
            }
        }
        rng.shuffle(&mut out);
        out
    }

    fn zipf(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.zipf_cdf
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.hot - 1)
    }
}

/// A Poisson schedule at `rate` for `secs`, drawing cold keys from
/// `next_cold` onwards (each cold key is used once per run).
pub fn schedule(
    keys: &Keys,
    seed: u64,
    step: u64,
    rate: f64,
    secs: f64,
    next_cold: &mut usize,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed, 0xa441_0000 + step);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= secs {
            break;
        }
        let (class, key) = if rng.unit() < COLD_SHARE && *next_cold < keys.reqs.len() {
            *next_cold += 1;
            (Class::Cold, *next_cold - 1)
        } else {
            (Class::Warm, keys.zipf(&mut rng))
        };
        out.push(Arrival {
            due: Duration::from_secs_f64(t),
            class,
            key,
        });
    }
    out
}

fn wire_bytes(body: &[u8]) -> Vec<u8> {
    let mut out = format!(
        "POST /v1/run HTTP/1.1\r\nhost: bench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body);
    out
}

/// One reply as the generator saw it.
#[derive(Debug, Clone)]
struct Reply {
    status: u16,
    body: Arc<[u8]>,
    at: Instant,
}

/// Parse one `Content-Length`-framed response from the front of `buf`.
fn parse_response(buf: &[u8]) -> Option<(u16, Vec<u8>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines.next()?.split_whitespace().nth(1)?.parse().ok()?;
    let len: usize = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, v)| v.trim().parse().ok())?;
    let total = head_end + 4 + len;
    (buf.len() >= total).then(|| (status, buf[head_end + 4..total].to_vec(), total))
}

/// One of a step's `WINDOWS` equal stretches of due time. A step's
/// verdict takes the median of its windows' loads: one short stall of the
/// shared host blows the tail of the window it falls in, while a load the
/// server cannot keep up with shows in every window after the first.
#[derive(Debug, Default)]
struct Window {
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    lag_ms: Vec<f64>,
}

const WINDOWS: usize = 3;

impl Window {
    fn of(due: Duration, secs: f64) -> usize {
        ((due.as_secs_f64() / secs * WINDOWS as f64) as usize).min(WINDOWS - 1)
    }

    /// The largest of warm p99, cold p90 and lag p99 over their limits.
    fn load(&self) -> f64 {
        let tail =
            |v: &[f64], p: f64, limit: f64| percentile(v, p).map_or(0.0, |pc| pc.value / limit);
        [
            tail(&self.warm_ms, 99.0, WARM_P99_LIMIT_MS),
            tail(&self.cold_ms, 90.0, COLD_P90_LIMIT_MS),
            tail(&self.lag_ms, 99.0, LAG_P99_LIMIT_MS),
        ]
        .into_iter()
        .fold(0.0, f64::max)
    }
}

/// What one step measured.
#[derive(Debug, Default)]
struct Step {
    rate: u32,
    sent: usize,
    rejected_429: usize,
    failed: usize,
    warm_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    windows: [Window; WINDOWS],
    backlog_at_end: usize,
    queue_depth_end: f64,
    /// First due → last reply.
    wall: Duration,
    /// Whether the load threads got real-time priority.
    realtime: bool,
    /// Why the step ended early, if it did.
    error: Option<String>,
}

impl Step {
    fn pct(v: &[f64], p: f64) -> f64 {
        percentile(v, p).map_or(f64::INFINITY, |x| x.value)
    }

    /// How close the step came to its limits: the median of its windows'
    /// loads, or the backlog over its limit if that is larger. At most 1
    /// qualifies; a refusal or a failure makes it infinite.
    fn load(&self) -> f64 {
        if self.failed + self.rejected_429 > 0 {
            return f64::INFINITY;
        }
        let windows: Vec<f64> = self.windows.iter().map(Window::load).collect();
        median(&windows).max(self.backlog_at_end as f64 / BACKLOG_LIMIT as f64)
    }

    fn qualifies(&self) -> bool {
        self.load() <= 1.0
    }
}

/// Each rate of a climb with its best load: a rate qualifies if any of
/// its steps did.
fn by_rate(climb: &[(u32, f64)]) -> Vec<(u32, f64)> {
    let mut rates: Vec<(u32, f64)> = Vec::new();
    for &(rate, load) in climb {
        match rates.iter_mut().find(|r| r.0 == rate) {
            Some(r) => r.1 = r.1.min(load),
            None => rates.push((rate, load)),
        }
    }
    rates
}

/// A step's `(rate, load)`.
type RateLoad = (u32, f64);

/// The bracket a climb ends in: the highest qualifying rate below the
/// lowest rate that missed, and that rate.
fn bracket(climb: &[RateLoad]) -> (Option<RateLoad>, Option<RateLoad>) {
    let rates = by_rate(climb);
    let hi = rates
        .iter()
        .filter(|s| s.1 > 1.0)
        .min_by_key(|s| s.0)
        .copied();
    let lo = rates
        .iter()
        .filter(|s| s.1 <= 1.0 && hi.is_none_or(|h| s.0 < h.0))
        .max_by_key(|s| s.0)
        .copied();
    (lo, hi)
}

/// The rate to run next, or `None` when the climb is over: a rate that
/// missed once runs again; otherwise the ladder is climbed (or descended)
/// until the bracket closes, then bisected.
fn next_rate(climb: &[RateLoad]) -> Option<u32> {
    let Some(&(last, load)) = climb.last() else {
        return Some(LADDER_RPS[0]);
    };
    if load > 1.0 && climb.iter().filter(|s| s.0 == last).count() == 1 {
        return Some(last);
    }
    match bracket(climb) {
        (Some((lo, _)), None) => LADDER_RPS.into_iter().find(|&r| r > lo),
        (Some((lo, _)), Some((hi, _))) => {
            let mid = (f64::from(lo) * f64::from(hi)).sqrt().round() as u32;
            (f64::from(hi) / f64::from(lo) > BRACKET_RATIO).then_some(mid)
        }
        (None, Some((hi, _))) => {
            let down = (f64::from(hi) / LADDER_RATIO).round() as u32;
            (down >= REFERENCE_RPS).then_some(down)
        }
        (None, None) => None,
    }
}

/// `server.max_rate_rps` of a climb: the top of its bracket's qualifying side,
/// interpolated towards the rate that missed by taking log(load) as
/// linear in log(rate) between the two and solving for load 1. A rate
/// lost to refusals or timeouts adds nothing beyond the qualifying one.
pub fn max_rate(climb: &[(u32, f64)]) -> f64 {
    match bracket(climb) {
        (None, _) => 0.0,
        (Some((lo, _)), None) => f64::from(lo),
        (Some((r0, l0)), Some((r1, l1))) => {
            let (r0, r1, l0) = (f64::from(r0), f64::from(r1), l0.max(1e-6));
            if !l1.is_finite() {
                return r0;
            }
            let t = ((1.0 / l0).ln() / (l1 / l0).ln()).clamp(0.0, 1.0);
            r0 * (r1 / r0).powf(t)
        }
    }
}

/// Every reply of the run as `(key, class, reply, due time)`. Equal
/// bodies are stored once, so the log's memory follows the distinct
/// replies, not the request rate.
#[derive(Default)]
struct Log {
    entries: Vec<(usize, Class, Reply, Instant)>,
    bodies: HashMap<u64, Arc<[u8]>>,
}

impl Log {
    fn push(&mut self, key: usize, class: Class, mut reply: Reply, due: Instant) {
        let digest = regmutex_durable::fnv1a(&reply.body);
        reply.body = self.bodies.entry(digest).or_insert(reply.body).clone();
        self.entries.push((key, class, reply, due));
    }
}

/// Give the calling load thread real-time (`SCHED_FIFO`) priority, so a
/// send or a reply timestamp is never held back by a simulation that
/// happens to occupy the CPU for the rest of its time slice. Without it
/// the generator's own wake-up delay (up to one slice, ~3 ms) dominates
/// the warm tail on a 2-CPU host. Returns false where the process may not
/// (no `CAP_SYS_NICE`); the run then goes on at normal priority and says
/// so in its report.
fn load_thread_priority() -> bool {
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    const SCHED_FIFO: i32 = 1;
    let param = SchedParam { sched_priority: 1 };
    // SAFETY: pid 0 names the calling thread, and `param` is a live,
    // properly laid out `struct sched_param` the call only reads.
    let rc = unsafe { sched_setscheduler(0, SCHED_FIFO, &param) };
    rc == 0
}

/// Write all of `bytes` to a nonblocking socket, giving up once the
/// peer has not taken a byte for `DRAIN`.
fn write_all(mut stream: &TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    let mut stalled_since = None;
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => {
                bytes = &bytes[n..];
                stalled_since = None;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                if stalled_since.get_or_insert_with(Instant::now).elapsed() > DRAIN {
                    return Err(ErrorKind::TimedOut.into());
                }
                std::thread::sleep(Duration::from_micros(50))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Run one step's schedule open-loop on two fresh connections: the
/// calling thread sends each request at its due time whatever the
/// replies do, and one reader thread takes the replies off both
/// connections as they arrive (two load threads, one per CPU of the
/// sizing host). A connection the server closes or answers out of turn
/// ends the step: the requests still unanswered count as failed and the
/// reason goes to `Step::error`.
fn run_step(
    addr: SocketAddr,
    keys: &Keys,
    (sched, secs): (&[Arrival], f64),
    rate: u32,
    log: &mut Log,
    tracer: Option<&Tracer>,
) -> std::io::Result<Step> {
    let conns = [TcpStream::connect(addr)?, TcpStream::connect(addr)?];
    for c in &conns {
        c.set_nodelay(true)?;
        c.set_nonblocking(true)?;
    }
    let wires: Vec<Vec<u8>> = keys.bodies.iter().map(|b| wire_bytes(b)).collect();
    let mut step = Step {
        rate,
        sent: sched.len(),
        ..Step::default()
    };
    let received = AtomicUsize::new(0);
    let sending_done = AtomicBool::new(false);
    let (tx_warm, rx_warm) = mpsc::channel::<usize>();
    let (tx_cold, rx_cold) = mpsc::channel::<usize>();
    let start = Instant::now() + Duration::from_millis(2);

    let (replies, error) = std::thread::scope(|scope| -> std::io::Result<_> {
        let rxs = [rx_warm, rx_cold];
        let (conns, received, sending_done) = (&conns, &received, &sending_done);
        let reader = scope.spawn(move || -> std::io::Result<_> {
            load_thread_priority();
            let epoll = Epoll::new()?;
            for (i, c) in conns.iter().enumerate() {
                epoll.add(c.as_raw_fd(), EPOLLIN, i as u64)?;
            }
            let mut events = [EpollEvent::zeroed(); 4];
            let mut replies: Vec<Option<Reply>> = vec![None; sched.len()];
            let mut inbufs = [Vec::new(), Vec::new()];
            let mut buf = vec![0u8; 1 << 16];
            let mut deadline: Option<Instant> = None;
            while received.load(Ordering::SeqCst) < sched.len() {
                if deadline.is_none() && sending_done.load(Ordering::SeqCst) {
                    deadline = Some(Instant::now() + DRAIN);
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    break;
                }
                for ev in epoll.wait(&mut events, 5)? {
                    let c = ev.token() as usize;
                    let mut closed = false;
                    loop {
                        match (&conns[c]).read(&mut buf) {
                            Ok(0) => {
                                closed = true;
                                break;
                            }
                            Ok(n) => inbufs[c].extend_from_slice(&buf[..n]),
                            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                            Err(e) if e.kind() == ErrorKind::Interrupted => {}
                            Err(e) => return Ok((replies, Some(format!("read: {e}")))),
                        }
                    }
                    let at = Instant::now();
                    while let Some((status, body, used)) = parse_response(&inbufs[c]) {
                        inbufs[c].drain(..used);
                        let Ok(idx) = rxs[c].try_recv() else {
                            let body = String::from_utf8_lossy(&body).into_owned();
                            let error =
                                format!("reply {status} with no request outstanding: {body}");
                            return Ok((replies, Some(error)));
                        };
                        if let Some(tr) = tracer {
                            tr.close(tr.open(), 0, "loadgen.reply", idx as u64, at);
                        }
                        replies[idx] = Some(Reply {
                            status,
                            body: body.into(),
                            at,
                        });
                        received.fetch_add(1, Ordering::SeqCst);
                    }
                    if closed {
                        return Ok((replies, Some("the server closed a connection".into())));
                    }
                }
            }
            Ok((replies, None))
        });

        let txs = [&tx_warm, &tx_cold];
        step.realtime = load_thread_priority();
        let mut send_error = None;
        for (i, a) in sched.iter().enumerate() {
            let due = start + a.due;
            let wait = due.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            let c = usize::from(a.class == Class::Cold);
            // The reader learns which request a reply answers from this
            // queue, so the index goes in before the bytes go out.
            let _ = txs[c].send(i);
            let sent = match tracer {
                Some(tr) => tr.span("loadgen.send", 0, i as u64, |_| {
                    write_all(&conns[c], &wires[a.key])
                }),
                None => write_all(&conns[c], &wires[a.key]),
            };
            if let Err(e) = sent {
                send_error = Some(format!("send: {e}"));
                break;
            }
            let lag = ms(Instant::now().saturating_duration_since(due));
            step.lag_ms.push(lag);
            step.windows[Window::of(a.due, secs)].lag_ms.push(lag);
        }
        step.backlog_at_end = sched.len() - received.load(Ordering::SeqCst);
        step.queue_depth_end = scrape(addr)
            .ok()
            .and_then(|m| gauge(&m, "regmutex_queue_depth"))
            .unwrap_or(0.0);
        sending_done.store(true, Ordering::SeqCst);
        let (replies, read_error) = reader.join().expect("reader thread panicked")?;
        Ok((replies, send_error.or(read_error)))
    })?;
    step.error = error;

    let mut last = start;
    for (a, r) in sched.iter().zip(replies) {
        let due = start + a.due;
        match r {
            Some(r) => {
                last = last.max(r.at);
                let lat = ms(r.at.saturating_duration_since(due));
                let window = &mut step.windows[Window::of(a.due, secs)];
                match r.status {
                    200 => match a.class {
                        Class::Warm => {
                            step.warm_ms.push(lat);
                            window.warm_ms.push(lat);
                        }
                        Class::Cold => {
                            step.cold_ms.push(lat);
                            window.cold_ms.push(lat);
                        }
                    },
                    429 => step.rejected_429 += 1,
                    _ => step.failed += 1,
                }
                log.push(a.key, a.class, r, due);
            }
            None => step.failed += 1,
        }
    }
    step.wall = last.saturating_duration_since(start);
    Ok(step)
}

fn scrape(addr: SocketAddr) -> Result<String, String> {
    let r = http::client_request(addr, "GET", "/metrics", None, Duration::from_secs(5))
        .map_err(|e| e.to_string())?;
    String::from_utf8(r.body).map_err(|e| e.to_string())
}

/// Value of an unlabelled series in a Prometheus exposition.
fn gauge(text: &str, name: &str) -> Option<f64> {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|rest| rest.strip_prefix(' ')))
        .and_then(|v| v.trim().parse().ok())
}

fn reference_secs(ctx: &Ctx) -> f64 {
    (ctx.seconds - CLIMB_SECS).max(MIN_REFERENCE_SECS)
}

/// The server as shipped (`ServerConfig` and `Limits` defaults: queue of
/// 64 jobs, pipelining window 8), on an ephemeral port with 2 sim
/// workers.
fn server_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        sim_workers: SIM_WORKERS,
        ..ServerConfig::default()
    }
}

/// Start a server and warm its hot set: one pipelined request per key on
/// one keep-alive connection, so the sim workers share the warm-up rather
/// than waiting on one round trip after another.
fn start_warm(keys: &Keys) -> Result<Server, String> {
    let built = suite::all();
    assert_eq!(built.len(), 16);
    let server = Server::start(server_config()).map_err(|e| format!("server start: {e}"))?;
    let mut client = http::HttpClient::new(
        server.local_addr().to_string(),
        Duration::from_secs(10),
        true,
    );
    let hot: Vec<&[u8]> = keys.bodies[..keys.hot].iter().map(Vec::as_slice).collect();
    let replies = client
        .request_batch("POST", "/v1/run", &hot)
        .map_err(|e| format!("warm-up requests: {e}"))?;
    for (body, r) in hot.iter().zip(&replies) {
        if r.status != 200 {
            return Err(format!(
                "warm-up request {} answered {}: {}",
                String::from_utf8_lossy(body),
                r.status,
                String::from_utf8_lossy(&r.body)
            ));
        }
    }
    Ok(server)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    match run_inner(ctx, &mut out) {
        Ok(()) => {}
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
        }
    }
    out
}

fn run_inner(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let keys = Keys::new(ctx.seed);
    if !ctx.trace {
        return run_batches(ctx, out, &keys);
    }
    let server = start_warm(&keys)?;
    let result = drive(ctx, out, &keys, server.local_addr());
    server.shutdown_and_wait();
    result
}

/// The untraced run: the closed batch, once per pass, each time on a
/// fresh server started and warmed in the pass's set-up, so every pass
/// simulates the same cold keys.
fn run_batches(ctx: &Ctx, out: &mut Outcome, keys: &Keys) -> Result<(), String> {
    let batch = keys.batch(ctx.seed);
    let (mut setups, mut walls) = (Vec::new(), Vec::new());
    // The first pass's replies are checked against local runs; every
    // later pass must reply the same bytes to the same requests.
    let mut first: Option<Log> = None;
    let mut error = None;
    let n = passes(ctx, 3, |_| {
        if error.is_some() {
            return;
        }
        let t = Instant::now();
        let server = match start_warm(keys) {
            Ok(s) => s,
            Err(e) => {
                error = Some(e);
                return;
            }
        };
        setups.push(t.elapsed().as_secs_f64());
        let mut log = Log::default();
        match run_step(server.local_addr(), keys, (&batch, 1.0), 0, &mut log, None) {
            Ok(step) => {
                walls.push(step.wall.as_secs_f64());
                let lost = step.failed + step.rejected_429;
                out.attempted += lost as u64;
                for _ in 0..lost {
                    out.fail("closed batch: a request failed or was refused".into());
                }
                if let Some(e) = step.error {
                    error = Some(format!("closed batch ended early: {e}"));
                }
            }
            Err(e) => error = Some(format!("closed batch: {e}")),
        }
        server.shutdown_and_wait();
        match &first {
            None => first = Some(log),
            Some(f) => {
                let same = f.entries.len() == log.entries.len()
                    && f.entries.iter().zip(&log.entries).all(|(a, b)| {
                        a.0 == b.0 && a.2.status == b.2.status && a.2.body == b.2.body
                    });
                out.check(same, || {
                    "closed batch: a pass replied differently from the first".into()
                });
            }
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    verify(out, keys, first.as_ref().expect("at least one pass"));
    let cold = batch.iter().filter(|a| a.class == Class::Cold).count();
    out.line(format!(
        "serve-mixed closed batch: {} requests ({cold} cold: every cell at {BATCH_CTAS:?} CTAs), \
         {SIM_WORKERS} sim workers (server defaults otherwise), fresh server per pass, {n} passes",
        batch.len()
    ));
    out.series("setup_s", "s", &setups);
    out.series("wall_s", "s", &walls);
    out.metric("setup_s", median(&setups));
    out.metric("wall_s", median(&walls));
    out.metric("peak_rss_mb", peak_rss_mb());
    Ok(())
}

/// The traced run's open loop: the reference step, the capacity climb,
/// then [`traced`].
fn drive(ctx: &Ctx, out: &mut Outcome, keys: &Keys, addr: SocketAddr) -> Result<(), String> {
    let mut next_cold = keys.hot;
    let mut log = Log::default();
    let sched = schedule(
        keys,
        ctx.seed,
        0,
        f64::from(REFERENCE_RPS),
        reference_secs(ctx),
        &mut next_cold,
    );
    let reference = run_step(
        addr,
        keys,
        (&sched, reference_secs(ctx)),
        REFERENCE_RPS,
        &mut log,
        None,
    )
    .map_err(|e| format!("reference step: {e}"))?;
    let reference_entries = log.entries.len();
    let mut ladder: Vec<Step> = Vec::new();
    let mut climb: Vec<RateLoad> = Vec::new();
    while let Some(rate) = next_rate(&climb) {
        let sched = schedule(
            keys,
            ctx.seed,
            1 + climb.len() as u64,
            f64::from(rate),
            RUNG_SECS,
            &mut next_cold,
        );
        let step = run_step(addr, keys, (&sched, RUNG_SECS), rate, &mut log, None)
            .map_err(|e| format!("step {rate}/s: {e}"))?;
        climb.push((rate, step.load()));
        ladder.push(step);
    }
    let reports = verify(out, keys, &log);
    // Past the end of the cold pool a schedule draws warm keys only, which
    // would lighten the load the climb measures.
    out.check(next_cold < keys.reqs.len(), || {
        format!(
            "the climb used up all {} cold keys",
            keys.reqs.len() - keys.hot
        )
    });
    // The reference rate must be served in full. Above it a refusal or a
    // missing reply only disqualifies its rung.
    let lost = reference.failed + reference.rejected_429;
    out.attempted += lost as u64;
    for _ in 0..lost {
        out.fail(format!(
            "reference step {REFERENCE_RPS}/s: a request failed or was refused"
        ));
    }

    let steps: Vec<&Step> = std::iter::once(&reference).chain(&ladder).collect();
    let max_rate = max_rate(&climb);
    out.line(format!(
        "serve-mixed: {SIM_WORKERS} sim workers (server defaults otherwise), hot set {HOT_KEYS} keys \
         (Zipf s={ZIPF_S}), cold share {COLD_SHARE}, limits warm p99 <= {WARM_P99_LIMIT_MS} ms, \
         cold p90 <= {COLD_P90_LIMIT_MS} ms, lag p99 <= {LAG_P99_LIMIT_MS} ms, backlog <= {BACKLOG_LIMIT}"
    ));
    out.line(if steps.iter().all(|s| s.realtime) {
        "load threads ran at real-time (SCHED_FIFO) priority"
    } else {
        "load threads ran at normal priority: SCHED_FIFO was refused, so generator lag shows in the latencies"
    });
    out.line("rate_rps   sent     ok   429 failed  warm_p50  warm_p99  cold_p50  cold_p90  lag_p99 backlog qdepth   load ok?");
    for s in &steps {
        out.line(format!(
            "{:>8} {:>6} {:>6} {:>5} {:>6} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>8.3} {:>7} {:>6} {:>6.3} {}",
            s.rate,
            s.sent,
            s.warm_ms.len() + s.cold_ms.len(),
            s.rejected_429,
            s.failed,
            Step::pct(&s.warm_ms, 50.0),
            Step::pct(&s.warm_ms, 99.0),
            Step::pct(&s.cold_ms, 50.0),
            Step::pct(&s.cold_ms, 90.0),
            Step::pct(&s.lag_ms, 99.0),
            s.backlog_at_end,
            s.queue_depth_end,
            s.load(),
            if s.qualifies() { "yes" } else { "no" }
        ));
    }
    for s in &steps {
        if let Some(e) = &s.error {
            out.line(format!("step {}/s ended early: {e}", s.rate));
        }
    }
    let sent: usize = steps.iter().map(|s| s.sent).sum();
    let lost: usize = steps.iter().map(|s| s.failed + s.rejected_429).sum();
    let failed_share = crate::stats::ratio(lost as f64, sent as f64);
    out.line(format!(
        "all steps: {lost} of {sent} requests refused or unanswered (failed_share {failed_share:.6}); \
         above the reference rate these only disqualify their rung"
    ));
    // Latency percentiles of the reference step are reported with the
    // server layer: on the 2-CPU sizing host their run-to-run spread is
    // wider than any bound an end-to-end metric may carry.
    reference_percentile(out, "server.warm_p50_ms", &reference.warm_ms, 50.0);
    reference_percentile(out, "server.warm_p99_ms", &reference.warm_ms, 99.0);
    reference_percentile(out, "server.cold_p50_ms", &reference.cold_ms, 50.0);
    reference_percentile(out, "server.cold_p90_ms", &reference.cold_ms, 90.0);
    // Capacity under the limits is reported with the server layer too: it
    // rests on a few 2 s probes near saturation, and on this shared host
    // its ten-seed spread reached 0.29.
    out.line(format!("server.max_rate_rps          {max_rate:>10.1}"));
    out.metric("server.max_rate_rps", max_rate);
    out.metric("loadgen.failed_share", failed_share);
    traced(
        ctx,
        out,
        keys,
        addr,
        &steps,
        (&log, reference_entries),
        &reports,
        &mut next_cold,
    )
}

/// A latency percentile of the reference step, printed with its sample
/// count; fewer than ten samples beyond it fails the run.
fn reference_percentile(out: &mut Outcome, name: &str, lat: &[f64], p: f64) {
    match percentile(lat, p) {
        Some(pc) if pc.supported() => {
            out.line(format!(
                "{name:<28} {:>10.4}  (n={}, {} beyond)",
                pc.value, pc.n, pc.beyond
            ));
            out.metric(name, pc.value);
        }
        got => {
            out.attempted += 1;
            out.fail(format!(
                "{name}: the reference step has {:?} samples (n, beyond) at p{p}",
                got.map(|g| (g.n, g.beyond))
            ));
        }
    }
}

/// Check every 200 body against a local run of the same request's spec
/// (the unique keys on two runner workers). Returns the local reports by
/// key.
fn verify(out: &mut Outcome, keys: &Keys, log: &Log) -> HashMap<usize, regmutex::RunReport> {
    let mut unique: Vec<usize> = log
        .entries
        .iter()
        .filter(|e| e.2.status == 200)
        .map(|e| e.0)
        .collect();
    unique.sort_unstable();
    unique.dedup();
    let specs: Vec<JobSpec> = unique
        .iter()
        .map(|k| spec_for_request(&keys.reqs[*k], 0, None))
        .collect();
    let results = Runner::new(SIM_WORKERS).run_all(&specs);
    let local: HashMap<usize, regmutex::RunReport> = unique
        .iter()
        .zip(results)
        .filter_map(|(k, r)| r.ok().map(|rep| (*k, rep)))
        .collect();
    let mut checked: HashMap<(usize, u64), bool> = HashMap::new();
    for (key, _, r, _) in &log.entries {
        if r.status != 200 {
            continue;
        }
        let digest = regmutex_durable::fnv1a(&r.body);
        let ok = *checked.entry((*key, digest)).or_insert_with(|| {
            std::str::from_utf8(&r.body)
                .ok()
                .and_then(|t| json::parse(t).ok())
                .and_then(|v| wire::report_from_json(&v).ok())
                .is_some_and(|got| local.get(key).is_some_and(|want| got.stats == want.stats))
        });
        out.check(ok, || {
            format!(
                "{}: 200 body stats differ from a local run",
                keys.reqs[*key].app
            )
        });
    }
    local
}

#[allow(clippy::too_many_arguments)]
fn traced(
    ctx: &Ctx,
    out: &mut Outcome,
    keys: &Keys,
    addr: SocketAddr,
    steps: &[&Step],
    (log, reference_entries): (&Log, usize),
    reports: &HashMap<usize, regmutex::RunReport>,
    next_cold: &mut usize,
) -> Result<(), String> {
    let reference = &steps[0];
    // The reference step once more, with the generator's sends and
    // replies in spans.
    let traced = Traced::default();
    let tr = &traced.tracer;
    let sched = schedule(
        keys,
        ctx.seed,
        100,
        f64::from(REFERENCE_RPS),
        reference_secs(ctx),
        next_cold,
    );
    let mut step_log = Log::default();
    let again = run_step(
        addr,
        keys,
        (&sched, reference_secs(ctx)),
        REFERENCE_RPS,
        &mut step_log,
        Some(tr),
    )
    .map_err(|e| format!("traced step: {e}"))?;
    let loadgen_spans = tr.take();

    // Replay the recorded requests through the server's own parse,
    // decode and encode functions.
    let limits = Limits::default();
    for (n, (key, _, r, _)) in log.entries.iter().enumerate() {
        let id = n as u64;
        let bytes = wire_bytes(&keys.bodies[*key]);
        let parsed = tr.span("server.http_parse", 0, id, |_| {
            http::parse_request_buf(&bytes, &limits)
        });
        let Ok(Some((req, _))) = parsed else {
            out.fail("replayed request does not parse".into());
            continue;
        };
        let decoded = tr.span("server.decode", 0, id, |_| {
            std::str::from_utf8(&req.body)
                .ok()
                .and_then(|t| json::parse(t).ok())
                .and_then(|v| wire::parse_run_request(&v).ok())
        });
        let (Some(run_req), Some(report)) = (decoded, reports.get(key)) else {
            continue;
        };
        let cached = r.body.windows(13).any(|w| w == b"\"cached\":true");
        let encoded = tr.span("server.encode", 0, id, |_| {
            let body =
                wire::run_response_json(&run_req.app, report, cached, run_req.lease).encode();
            http::encode_response(&http::Response::json(200, body), true)
        });
        out.check(encoded.ends_with(&r.body), || {
            "re-encoded reply differs from the server's".into()
        });
    }
    // The cold requests' specs through the decomposed runner path.
    let cold_specs: Vec<JobSpec> = log
        .entries
        .iter()
        .filter(|(_, c, r, _)| *c == Class::Cold && r.status == 200)
        .map(|(k, _, _, _)| spec_for_request(&keys.reqs[*k], 0, None))
        .collect();
    let cache = ResultCache::new(DEFAULT_CACHE_BUDGET);
    let results = traced.run_batch(&cache, SIM_WORKERS, &cold_specs, 0);
    let cold_keys = log
        .entries
        .iter()
        .filter(|(_, c, r, _)| *c == Class::Cold && r.status == 200);
    for ((k, _, _, _), r) in cold_keys.zip(&results) {
        let same = r.as_ref().ok().map(|got| &got.stats) == reports.get(k).map(|want| &want.stats);
        out.check(same, || {
            format!(
                "{}: traced replay differs from the served result",
                keys.reqs[*k].app
            )
        });
    }

    let spans = tr.take();
    let mut all = loadgen_spans.clone();
    all.extend(spans.iter().cloned());
    crate::write_spans(ctx, &all);
    let profile = Profile::of(&spans);
    out.line(format!("serve-mixed traced pass: {} spans", all.len()));
    out.line(profile.render());
    traced.emit(out, &profile, &cache);

    out.line("layer server");
    layer_percentile(
        out,
        "server.http_parse_us.p50",
        &profile.samples("server.http_parse", us),
        50.0,
    );
    layer_percentile(
        out,
        "server.decode_us.p50",
        &profile.samples("server.decode", us),
        50.0,
    );
    layer_percentile(
        out,
        "server.encode_us.p50",
        &profile.samples("server.encode", us),
        50.0,
    );
    // Queue wait of the reference step's cold requests: latency minus the
    // time `Runner::run_one` takes on the same spec, simulated alone.
    let runner = Runner::new(1);
    let waits: Vec<f64> = log.entries[..reference_entries]
        .iter()
        .filter(|(_, c, r, _)| *c == Class::Cold && r.status == 200)
        .map(|(k, _, r, due)| {
            let t = Instant::now();
            let _ = runner.run_one(&spec_for_request(&keys.reqs[*k], 0, None));
            ms(r.at.saturating_duration_since(*due)) - ms(t.elapsed())
        })
        .collect();
    layer_percentile(out, "server.queue_wait_ms.p90", &waits, 90.0);
    let metrics = scrape(addr)?;
    let hits = gauge(&metrics, "regmutex_cache_hits_total").unwrap_or(0.0);
    let misses = gauge(&metrics, "regmutex_cache_misses_total").unwrap_or(0.0);
    out.metric(
        "server.cache_hit_ratio",
        crate::stats::ratio(hits, hits + misses),
    );
    out.metric(
        "server.rejected_total",
        gauge(&metrics, "regmutex_jobs_rejected_total").unwrap_or(0.0),
    );
    let per_conn = crate::stats::ratio(
        gauge(&metrics, "regmutex_http_requests_per_connection_sum").unwrap_or(0.0),
        gauge(&metrics, "regmutex_http_requests_per_connection_count").unwrap_or(0.0),
    );
    out.metric("server.requests_per_connection", per_conn);
    let lag: Vec<f64> = steps
        .iter()
        .flat_map(|s| s.lag_ms.iter().copied())
        .collect();
    layer_percentile(out, "loadgen.lag_ms.p99", &lag, 99.0);
    let (first, ladder) = steps.split_first().expect("the reference step");
    for (name, group) in [
        ("reference", std::slice::from_ref(first)),
        ("ladder", ladder),
    ] {
        let sum = |f: fn(&Step) -> usize| group.iter().map(|s| f(s)).sum::<usize>() as f64;
        out.metric(format!("loadgen.{name}.sent"), sum(|s| s.sent));
        out.metric(
            format!("loadgen.{name}.ok"),
            sum(|s| s.warm_ms.len() + s.cold_ms.len()),
        );
        out.metric(
            format!("loadgen.{name}.rejected_429"),
            sum(|s| s.rejected_429),
        );
        out.metric(format!("loadgen.{name}.failed"), sum(|s| s.failed));
        let lag: Vec<f64> = group
            .iter()
            .flat_map(|s| s.lag_ms.iter().copied())
            .collect();
        out.metric(format!("loadgen.{name}.lag_ms.p99"), Step::pct(&lag, 99.0));
        out.metric(
            format!("loadgen.{name}.queue_depth_end"),
            group.iter().map(|s| s.queue_depth_end).fold(0.0, f64::max),
        );
    }
    out.metric("loadgen.ladder.rungs", ladder.len() as f64);
    out.line(
        "serve-mixed: the step's wall is set by its arrival schedule; the generator idles between \
         arrivals and the server's event loop runs untraced inside the server, so the spans \
         (sends and replies) cover little of it",
    );
    crate::trace_summary(
        out,
        &[reference.wall.as_secs_f64()],
        &[again.wall.as_secs_f64()],
        &loadgen_spans,
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> Vec<(Duration, Class, usize)> {
        let keys = Keys::new(seed);
        let mut next_cold = keys.hot;
        schedule(&keys, seed, 0, 800.0, 2.0, &mut next_cold)
            .into_iter()
            .map(|a| (a.due, a.class, a.key))
            .collect()
    }

    #[test]
    fn seed_sets_the_arrival_schedule() {
        assert_eq!(plan(9), plan(9));
        assert_ne!(plan(9), plan(10));
        let p = plan(9);
        assert!((1400..1800).contains(&p.len()), "{} arrivals", p.len());
        let cold = p.iter().filter(|a| a.1 == Class::Cold).count() as f64 / p.len() as f64;
        assert!((0.07..0.13).contains(&cold), "cold share {cold}");
    }

    #[test]
    fn seed_orders_the_closed_batch_but_not_its_cold_keys() {
        let cold = |seed: u64| {
            let keys = Keys::new(seed);
            let batch = keys.batch(seed);
            let mut cold: Vec<String> = batch
                .iter()
                .filter(|a| a.class == Class::Cold)
                .map(|a| format!("{:?}", keys.reqs[a.key]))
                .collect();
            let order = cold.clone();
            cold.sort();
            (batch.len(), cold, order)
        };
        let (a, b) = (cold(3), cold(4));
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1, "same cold keys for every seed");
        assert_ne!(a.2, b.2, "in another order");
        assert_eq!(a.1.len() * (1 + BATCH_WARM_PER_COLD), a.0);
        assert!(a.1.iter().all(|k| BATCH_CTAS
            .iter()
            .any(|c| k.contains(&format!("ctas: Some({c})")))));
        assert_eq!(cold(3), a);
    }

    #[test]
    fn cold_keys_are_never_seen_before() {
        let keys = Keys::new(1);
        let mut seen = std::collections::HashSet::new();
        for r in &keys.reqs {
            assert!(
                seen.insert((r.app.clone(), r.technique, r.half_rf, r.ctas)),
                "{r:?} repeats"
            );
        }
        let mut next_cold = keys.hot;
        let mut cold = Vec::new();
        let rates = std::iter::once(REFERENCE_RPS).chain(LADDER_RPS);
        for (i, rate) in rates.enumerate() {
            for a in schedule(&keys, 1, i as u64, f64::from(rate), 1.0, &mut next_cold) {
                if a.class == Class::Cold {
                    assert!(a.key >= keys.hot);
                    cold.push(a.key);
                } else {
                    assert!(a.key < keys.hot);
                }
            }
        }
        let n = cold.len();
        cold.sort_unstable();
        cold.dedup();
        assert_eq!(cold.len(), n);
    }

    #[test]
    fn max_rate_interpolates_within_the_bracket() {
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6;
        // Load 0.5 at 1,000/s and 2 at 4,000/s: load 1 at 2,000/s.
        assert!(close(max_rate(&[(1000, 0.5), (4000, 2.0)]), 2000.0));
        assert!(close(max_rate(&[(800, 0.1), (1000, 0.5)]), 1000.0));
        assert!(close(max_rate(&[(800, 0.1), (1000, f64::INFINITY)]), 800.0));
        assert!(close(max_rate(&[(800, 1.5)]), 0.0));
        // A probe that qualifies above a lower miss does not widen it.
        assert!(close(
            max_rate(&[(800, 0.1), (2000, 0.5), (2500, 2.0), (3000, 0.9)]),
            max_rate(&[(800, 0.1), (2000, 0.5), (2500, 2.0)])
        ));
    }

    #[test]
    fn one_stalled_window_does_not_decide_a_step() {
        let window = |ms: f64| Window {
            warm_ms: vec![ms; 200],
            cold_ms: vec![ms; 20],
            lag_ms: vec![0.1; 220],
        };
        let stalled_once = Step {
            windows: [window(1.0), window(500.0), window(2.0)],
            ..Step::default()
        };
        assert!(stalled_once.qualifies());
        let falling_behind = Step {
            windows: [window(1.0), window(400.0), window(500.0)],
            ..Step::default()
        };
        assert!(!falling_behind.qualifies());
        let backlog = Step {
            windows: [window(1.0), window(1.0), window(1.0)],
            backlog_at_end: BACKLOG_LIMIT + 1,
            ..Step::default()
        };
        assert!(!backlog.qualifies());
    }

    #[test]
    fn the_climb_follows_the_ladder_then_bisects() {
        let mut climb = Vec::new();
        let mut rates = Vec::new();
        while let Some(rate) = next_rate(&climb) {
            rates.push(rate);
            climb.push((rate, if rate > 4000 { 3.0 } else { 0.5 }));
        }
        // 4,883 and each probe above 4,000 miss twice before they count.
        assert_eq!(
            rates,
            [2500, 3125, 3906, 4883, 4883, 4367, 4367, 4130, 4130]
        );
        let m = max_rate(&climb);
        assert!((3906.0..4130.0).contains(&m), "{m}");
        // A single miss is run again and, if it then qualifies, the climb
        // goes on.
        let climb = [(3125, 0.5), (3906, 4.0), (3906, 0.6)];
        assert_eq!(next_rate(&climb[..2]), Some(3906));
        assert_eq!(next_rate(&climb), Some(4883));
        // Should the first rung miss, the climb steps down, then bisects.
        let mut climb = Vec::new();
        let mut rates = Vec::new();
        while let Some(rate) = next_rate(&climb) {
            rates.push(rate);
            climb.push((rate, if rate > 1800 { 3.0 } else { 0.5 }));
        }
        assert_eq!(rates, [2500, 2500, 2000, 2000, 1600, 1789, 1892, 1892]);
        // A climb that never qualifies ends at the reference rate.
        let mut climb = Vec::new();
        while let Some(rate) = next_rate(&climb) {
            climb.push((rate, 3.0));
        }
        assert_eq!(max_rate(&climb), 0.0);
    }

    #[test]
    fn parses_pipelined_responses() {
        let one =
            b"HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: 2\r\n\r\n{}";
        let mut two = one.to_vec();
        two.extend_from_slice(b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 0\r\n\r\n");
        let (status, body, used) = parse_response(&two).unwrap();
        assert_eq!(
            (status, body.as_slice(), used),
            (200, &b"{}"[..], one.len())
        );
        assert_eq!(parse_response(&two[used..]).map(|r| r.0), Some(429));
        assert!(parse_response(&one[..one.len() - 1]).is_none());
    }
}
