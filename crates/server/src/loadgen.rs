//! Closed-loop load generator for the simulation service.
//!
//! `threads` clients each issue `requests` back-to-back `POST /v1/run`
//! requests, sampling (workload, technique) pairs from the server's own
//! `/v1/workloads` registry with a seeded xorshift64* generator — the same
//! seed reproduces the same request stream. Being closed-loop, offered
//! load adapts to service rate; backpressure shows up as 429 counts, not
//! as client-side queue growth.
//!
//! Latency percentiles are exact (computed from the sorted client-side
//! sample set), unlike the server's bucketed histogram.
//!
//! Each thread drives one [`HttpClient`]: with keep-alive (the default)
//! all of a thread's requests share one connection unless the server
//! closes it; with `keep_alive: false` every request pays a fresh TCP
//! handshake — the pre-event-loop behaviour, kept measurable for
//! before/after comparison. The report carries per-connection request
//! counts so reuse is visible, not assumed. With `pipeline > 1` each
//! thread writes that many requests per round trip and reads the
//! responses back in order — the syscall-amortised mode that measures
//! the server's event loop rather than the scheduler's context-switch
//! rate.

use std::time::{Duration, Instant};

use regmutex_isa::XorShift;

use crate::http::{client_request, HttpClient};
use crate::json::{self, Json};

/// Load-generator parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, `host:port`.
    pub addr: String,
    /// Concurrent closed-loop client threads.
    pub threads: usize,
    /// Requests issued per thread.
    pub requests: usize,
    /// RNG seed for workload sampling.
    pub seed: u64,
    /// Per-request socket timeout.
    pub timeout: Duration,
    /// Restrict sampling to these workloads (empty = the full registry).
    pub apps: Vec<String>,
    /// Retries per request on 429 before giving up (honoring the server's
    /// `Retry-After` each time). 0 restores the fire-and-forget behaviour.
    pub max_retries_429: usize,
    /// Cap on a single `Retry-After` wait, so a hostile or confused server
    /// can't stall a client thread arbitrarily long.
    pub retry_after_cap: Duration,
    /// Reuse connections across requests (HTTP/1.1 keep-alive). `false`
    /// restores one-connection-per-request for comparison runs.
    pub keep_alive: bool,
    /// Requests pipelined per round trip (1 = classic request/response).
    /// Values above 1 batch that many requests into one write and read
    /// the responses back in order, amortising syscalls and context
    /// switches; the server answers at most 8 per read, so deeper
    /// windows only queue client-side. Pipelined batches skip 429
    /// retries (a batch is not safely re-issuable piecemeal), and each
    /// request's latency sample is its batch's full round trip.
    pub pipeline: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:8077".to_string(),
            threads: 4,
            requests: 50,
            seed: 0x5eed_2024,
            timeout: Duration::from_secs(120),
            apps: Vec::new(),
            max_retries_429: 3,
            retry_after_cap: Duration::from_secs(2),
            keep_alive: true,
            pipeline: 1,
        }
    }
}

/// Aggregate results of one load-generation run.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Requests issued (threads × requests).
    pub total: usize,
    /// 200 responses.
    pub ok: usize,
    /// 200 responses served from the result cache.
    pub cached: usize,
    /// Requests that still saw 429 after every retry (gave up).
    pub rejected: usize,
    /// 429 responses that were retried after honoring `Retry-After`
    /// (attempt count, not request count; one request can retry several
    /// times).
    pub retried_429: usize,
    /// Any other status or transport error.
    pub failed: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-request latencies in microseconds, sorted ascending.
    pub latencies_us: Vec<u64>,
    /// Connections opened across all client threads.
    pub connections: usize,
    /// Requests completed per connection, across all threads.
    pub conn_requests: Vec<u64>,
}

impl LoadgenReport {
    /// Exact percentile (nearest-rank on the sorted samples), in µs.
    pub fn percentile_us(&self, p: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let idx = ((p / 100.0) * (self.latencies_us.len() - 1) as f64).round() as usize;
        self.latencies_us[idx.min(self.latencies_us.len() - 1)]
    }

    /// Completed requests per second (every response counts — 429s are
    /// responses, not drops).
    pub fn rps(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s <= 0.0 {
            return 0.0;
        }
        (self.ok + self.rejected + self.failed) as f64 / s
    }

    /// Cache hit rate over successful runs.
    pub fn cache_hit_rate(&self) -> f64 {
        if self.ok == 0 {
            return 0.0;
        }
        self.cached as f64 / self.ok as f64
    }

    /// Whether every issued request got *some* response (nothing dropped).
    pub fn nothing_dropped(&self) -> bool {
        self.ok + self.rejected + self.failed == self.total
    }

    /// Successfully completed requests per second — the throughput that
    /// actually did work, as opposed to [`LoadgenReport::rps`]'s raw
    /// response rate. Retried-then-succeeded requests count once.
    pub fn goodput(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s <= 0.0 {
            return 0.0;
        }
        self.ok as f64 / s
    }

    /// Mean requests per connection (1.0 without keep-alive).
    pub fn requests_per_conn(&self) -> f64 {
        if self.conn_requests.is_empty() {
            return 0.0;
        }
        self.conn_requests.iter().sum::<u64>() as f64 / self.conn_requests.len() as f64
    }

    /// Human-readable summary block.
    pub fn render(&self) -> String {
        format!(
            "requests      {}\n\
             ok            {}\n\
             cached        {} ({:.1}% hit rate)\n\
             retried 429   {}\n\
             rejected 429  {}\n\
             failed        {}\n\
             connections   {} ({:.1} req/conn)\n\
             elapsed       {:.2} s\n\
             throughput    {:.1} req/s\n\
             goodput       {:.1} ok/s\n\
             latency p50   {:.3} ms\n\
             latency p95   {:.3} ms\n\
             latency p99   {:.3} ms",
            self.total,
            self.ok,
            self.cached,
            100.0 * self.cache_hit_rate(),
            self.retried_429,
            self.rejected,
            self.failed,
            self.connections,
            self.requests_per_conn(),
            self.elapsed.as_secs_f64(),
            self.rps(),
            self.goodput(),
            self.percentile_us(50.0) as f64 / 1e3,
            self.percentile_us(95.0) as f64 / 1e3,
            self.percentile_us(99.0) as f64 / 1e3,
        )
    }
}

const TECHNIQUES: [&str; 2] = ["baseline", "regmutex"];

/// Fetch the workload names the server offers.
fn fetch_workloads(cfg: &LoadgenConfig) -> Result<Vec<String>, String> {
    let resp = client_request(&cfg.addr, "GET", "/v1/workloads", None, cfg.timeout)
        .map_err(|e| format!("GET /v1/workloads: {e}"))?;
    if resp.status != 200 {
        return Err(format!("GET /v1/workloads: status {}", resp.status));
    }
    let text = core::str::from_utf8(&resp.body).map_err(|e| e.to_string())?;
    let parsed = json::parse(text).map_err(|e| e.to_string())?;
    let arr = parsed
        .as_arr()
        .ok_or_else(|| "workload registry is not an array".to_string())?;
    let names: Vec<String> = arr
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .map(str::to_string)
        .collect();
    if names.is_empty() {
        return Err("workload registry is empty".to_string());
    }
    Ok(names)
}

/// Run the closed loop and aggregate every thread's tallies.
pub fn run_loadgen(cfg: &LoadgenConfig) -> Result<LoadgenReport, String> {
    let mut names = fetch_workloads(cfg)?;
    if !cfg.apps.is_empty() {
        names.retain(|n| cfg.apps.iter().any(|a| a == n));
        if names.is_empty() {
            return Err("no requested app exists in the server registry".to_string());
        }
    }
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..cfg.threads.max(1) {
        let cfg = cfg.clone();
        let names = names.clone();
        handles.push(std::thread::spawn(move || {
            worker(
                &cfg,
                &names,
                cfg.seed ^ (t as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            )
        }));
    }
    let mut report = LoadgenReport {
        total: cfg.threads.max(1) * cfg.requests,
        ..Default::default()
    };
    for h in handles {
        let part = h
            .join()
            .map_err(|_| "loadgen thread panicked".to_string())?;
        report.ok += part.ok;
        report.cached += part.cached;
        report.rejected += part.rejected;
        report.retried_429 += part.retried_429;
        report.failed += part.failed;
        report.latencies_us.extend(part.latencies_us);
        report.connections += part.connections;
        report.conn_requests.extend(part.conn_requests);
    }
    report.elapsed = started.elapsed();
    report.latencies_us.sort_unstable();
    Ok(report)
}

/// The wait a 429 asked for: its `Retry-After` seconds, capped. A missing
/// or unparsable header falls back to the cap (the server always sends the
/// header; a proxy might strip it).
fn retry_after_wait(resp: &crate::http::ClientResponse, cap: Duration) -> Duration {
    resp.header("retry-after")
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map_or(cap, Duration::from_secs)
        .min(cap)
}

/// Tally one response into the report (no-retry classification).
fn tally(resp: &crate::http::ClientResponse, part: &mut LoadgenReport) {
    match resp.status {
        200 => {
            part.ok += 1;
            // The server encodes canonically, so a substring scan is
            // exact here and much cheaper than a JSON parse.
            if resp
                .body
                .windows(b"\"cached\":true".len())
                .any(|w| w == b"\"cached\":true")
            {
                part.cached += 1;
            }
        }
        429 => part.rejected += 1,
        _ => part.failed += 1,
    }
}

fn worker(cfg: &LoadgenConfig, names: &[String], seed: u64) -> LoadgenReport {
    let mut rng = XorShift::new(seed.max(1));
    let mut part = LoadgenReport::default();
    let mut client = HttpClient::new(cfg.addr.clone(), cfg.timeout, cfg.keep_alive);
    // Request bodies are pure functions of (app, technique): precompute
    // every combination once so the hot loop does no JSON encoding.
    let bodies: Vec<Vec<u8>> = names
        .iter()
        .flat_map(|app| {
            TECHNIQUES.iter().map(move |technique| {
                Json::Obj(vec![
                    ("app".into(), Json::Str(app.clone())),
                    ("technique".into(), Json::Str((*technique).into())),
                ])
                .encode()
                .into_bytes()
            })
        })
        .collect();
    let pipeline = cfg.pipeline.max(1);
    if pipeline > 1 {
        // Pipelined mode: sample a full window up front (same two rng
        // draws per request, so a seed reproduces the same stream at any
        // depth), write it as one batch, read the responses in order.
        let mut remaining = cfg.requests;
        while remaining > 0 {
            let n = pipeline.min(remaining);
            remaining -= n;
            let idxs: Vec<usize> = (0..n)
                .map(|_| {
                    let app_idx = (rng.next_u64() % names.len() as u64) as usize;
                    let tech_idx = (rng.next_u64() % TECHNIQUES.len() as u64) as usize;
                    app_idx * TECHNIQUES.len() + tech_idx
                })
                .collect();
            let batch: Vec<&[u8]> = idxs.iter().map(|&i| bodies[i].as_slice()).collect();
            let sent = Instant::now();
            let outcome = client.request_batch("POST", "/v1/run", &batch);
            let us = sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
            match outcome {
                Ok(resps) => {
                    for resp in &resps {
                        part.latencies_us.push(us);
                        tally(resp, &mut part);
                    }
                }
                Err(_) => {
                    for _ in 0..n {
                        part.latencies_us.push(us);
                        part.failed += 1;
                    }
                }
            }
        }
    } else {
        for _ in 0..cfg.requests {
            // Same two rng draws (app, then technique) as the pre-pool
            // code, so a seed reproduces the same request stream.
            let app_idx = (rng.next_u64() % names.len() as u64) as usize;
            let tech_idx = (rng.next_u64() % TECHNIQUES.len() as u64) as usize;
            let body = &bodies[app_idx * TECHNIQUES.len() + tech_idx];
            // One logical request: up to 1 + max_retries_429 attempts,
            // backing off by the server's Retry-After between them. The
            // latency sample is end-to-end (waits included) — the latency
            // a polite client actually experiences under backpressure.
            let sent = Instant::now();
            let mut attempts_left = cfg.max_retries_429;
            let outcome = loop {
                match client.request("POST", "/v1/run", Some(body)) {
                    Ok(resp) if resp.status == 429 && attempts_left > 0 => {
                        attempts_left -= 1;
                        part.retried_429 += 1;
                        std::thread::sleep(retry_after_wait(&resp, cfg.retry_after_cap));
                    }
                    other => break other,
                }
            };
            part.latencies_us
                .push(sent.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
            match outcome {
                Ok(resp) => tally(&resp, &mut part),
                Err(_) => part.failed += 1,
            }
        }
    }
    part.connections = client.connections_opened as usize;
    part.conn_requests = client.conn_request_counts();
    part
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_on_sorted_samples() {
        let report = LoadgenReport {
            total: 100,
            ok: 100,
            latencies_us: (1..=100).collect(),
            elapsed: Duration::from_secs(2),
            ..Default::default()
        };
        assert_eq!(report.percentile_us(50.0), 51);
        assert_eq!(report.percentile_us(99.0), 99);
        assert_eq!(report.percentile_us(100.0), 100);
        assert!((report.rps() - 50.0).abs() < 1e-9);
        assert!(report.nothing_dropped());
    }

    #[test]
    fn empty_report_is_safe() {
        let r = LoadgenReport::default();
        assert_eq!(r.percentile_us(99.0), 0);
        assert_eq!(r.rps(), 0.0);
        assert_eq!(r.cache_hit_rate(), 0.0);
    }

    #[test]
    fn render_mentions_every_tally() {
        let r = LoadgenReport {
            total: 10,
            ok: 7,
            cached: 4,
            rejected: 2,
            retried_429: 5,
            failed: 1,
            elapsed: Duration::from_secs(1),
            latencies_us: vec![100, 200, 300],
            connections: 2,
            conn_requests: vec![6, 4],
        };
        let text = r.render();
        assert!(text.contains("rejected 429  2"), "{text}");
        assert!(text.contains("retried 429   5"), "{text}");
        assert!(text.contains("goodput       7.0 ok/s"), "{text}");
        assert!(text.contains("hit rate"), "{text}");
        assert!(text.contains("connections   2 (5.0 req/conn)"), "{text}");
        assert!((r.requests_per_conn() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn retry_after_wait_parses_and_caps() {
        use crate::http::ClientResponse;
        let resp = |headers: Vec<(String, String)>| ClientResponse {
            status: 429,
            headers,
            body: Vec::new(),
        };
        let cap = Duration::from_secs(2);
        let with = resp(vec![("retry-after".into(), "1".into())]);
        assert_eq!(retry_after_wait(&with, cap), Duration::from_secs(1));
        let over = resp(vec![("retry-after".into(), "60".into())]);
        assert_eq!(retry_after_wait(&over, cap), cap);
        let missing = resp(vec![]);
        assert_eq!(retry_after_wait(&missing, cap), cap);
        let garbage = resp(vec![("retry-after".into(), "soon".into())]);
        assert_eq!(retry_after_wait(&garbage, cap), cap);
    }
}
