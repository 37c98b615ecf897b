//! `fleet-journal`: a journaled fleet campaign, cold and then resumed.
//!
//! A `Coordinator` (2 dispatch threads) with a journal and result store
//! on local disk dispatches many short jobs — low-occupancy grids that
//! simulate in milliseconds — to two in-process `Server` workers (1 sim
//! worker each, `cache_dir` set). Fleet dispatch and the journal/store
//! carry most of the time here, simulation little. Then the finished
//! campaign is resumed from its journal and store (the read path). The
//! seed only sets the job order. Results must equal a local `Runner` over
//! the same jobs, and the resumed results must equal the cold run's.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use regmutex::ALL_TECHNIQUES;
use regmutex_bench::{CachedResult, JobExecutor, MatrixJob, Runner};
use regmutex_durable::{Journal, ResultStore};
use regmutex_fleet::{Coordinator, FleetConfig, FleetJournal, JobTrace, Ring};
use regmutex_server::wire;
use regmutex_server::{DiskTier, Server, ServerConfig};
use regmutex_workloads::suite;

use crate::host::peak_rss_mb;
use crate::outcome::{layer_percentile, passes, Ctx, Outcome};
use crate::paper_matrix::{digest, key, launchable};
use crate::spans::{Profile, Span, Tracer};
use crate::stats::{median, ms, ratio, us, Rng};

const DISPATCH_THREADS: usize = 2;
const WORKERS: usize = 2;
/// Grid sizes of the short jobs.
const CTAS: [u32; 3] = [1, 2, 3];
const CAMPAIGN: &str = "bench fleet-journal";
/// Times the campaign's payloads are replayed through the durable layer.
const DURABLE_ROUNDS: u64 = 3;
/// Set-up samples per pass.
const SETUP_REPEATS: usize = 5;

/// Every launchable (app, technique, RF) cell at each small grid size,
/// in the order the seed draws for pass `pass`.
pub fn job_list(seed: u64, pass: u64) -> Vec<MatrixJob> {
    let mut jobs = Vec::new();
    for w in suite::all() {
        for half_rf in [false, true] {
            if !launchable(&w, half_rf) {
                continue;
            }
            for t in ALL_TECHNIQUES {
                for ctas in CTAS {
                    let mut j = MatrixJob::new(w.name, t);
                    j.half_rf = half_rf;
                    j.ctas = Some(ctas);
                    jobs.push(j);
                }
            }
        }
    }
    Rng::new(seed, 0xf1ee_0000 + pass).shuffle(&mut jobs);
    jobs
}

/// A started fleet: its workers and a coordinator over them.
struct Fleet {
    servers: Vec<Server>,
    addrs: Vec<String>,
    dir: PathBuf,
}

impl Fleet {
    fn start(dir: &Path) -> Result<Fleet, String> {
        let mut servers = Vec::new();
        for i in 0..WORKERS {
            let server = Server::start(ServerConfig {
                addr: "127.0.0.1:0".into(),
                sim_workers: 1,
                cache_dir: Some(
                    dir.join(format!("worker{i}"))
                        .to_string_lossy()
                        .into_owned(),
                ),
                ..ServerConfig::default()
            })
            .map_err(|e| format!("worker start: {e}"))?;
            servers.push(server);
        }
        let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
        Ok(Fleet {
            servers,
            addrs,
            dir: dir.to_path_buf(),
        })
    }

    fn journal_dir(&self) -> PathBuf {
        self.dir.join("campaign")
    }

    /// A coordinator over the workers, after probing every one.
    fn probed(&self, seed: u64) -> Result<Coordinator, String> {
        let c = Coordinator::new(FleetConfig {
            workers: self.addrs.clone(),
            seed,
            dispatch_threads: DISPATCH_THREADS,
            ..FleetConfig::default()
        })?;
        for w in c.workers() {
            w.probe(Duration::from_secs(2))
                .map_err(|e| format!("probe {}: {e}", w.addr))?;
        }
        Ok(c)
    }

    /// Attach the campaign's result store and journal: created cold (the
    /// start of the write path), or reopened to resume.
    fn open_campaign(&self, c: &mut Coordinator, resume: bool) -> Result<(), String> {
        let dir = self.journal_dir();
        let tier = DiskTier::shared(&dir).map_err(|e| format!("result store: {e}"))?;
        c.set_tier(tier);
        let journal = if resume {
            FleetJournal::resume(&dir, CAMPAIGN)?
        } else {
            FleetJournal::create(&dir, CAMPAIGN)?
        };
        if resume {
            c.quarantine_workers(journal.quarantined());
        }
        c.set_journal(Arc::new(journal));
        Ok(())
    }

    /// [`Fleet::probed`] plus [`Fleet::open_campaign`].
    fn coordinator(&self, seed: u64, resume: bool) -> Result<Coordinator, String> {
        let mut c = self.probed(seed)?;
        self.open_campaign(&mut c, resume)?;
        Ok(c)
    }

    /// Stop the workers and keep their (empty until a campaign runs)
    /// cache directories for the next start.
    fn shutdown(self) -> PathBuf {
        for s in self.servers {
            s.shutdown_and_wait();
        }
        self.dir
    }

    fn stop(self) {
        let _ = std::fs::remove_dir_all(self.shutdown());
    }
}

/// Each job's result digest and simulation time from a local `Runner`,
/// by matrix cell.
type Reference = HashMap<String, (String, Duration)>;

/// Check cold results against the local reference and the resumed ones
/// against the cold run.
fn check(
    out: &mut Outcome,
    jobs: &[MatrixJob],
    reference: &Reference,
    cold: &[CachedResult],
    resumed: &[CachedResult],
) {
    for (j, (c, r)) in jobs.iter().zip(cold.iter().zip(resumed)) {
        let (k, c, r) = (key(j), digest(c), digest(r));
        let want = reference.get(&k).map(|(d, _)| d.as_str());
        out.check(want == Some(c.as_str()), || {
            format!("{k}: fleet {c} != local {want:?}")
        });
        out.check(r == c, || format!("{k}: resumed {r} != cold {c}"));
    }
}

fn local_reference(jobs: &[MatrixJob]) -> Reference {
    let runner = Runner::new(1);
    jobs.iter()
        .map(|j| {
            let spec = j.to_spec().expect("fleet job");
            let t = Instant::now();
            let (r, _) = runner.run_one(&spec);
            (key(j), (digest(&r), t.elapsed()))
        })
        .collect()
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if let Err(e) = run_inner(ctx, &mut out) {
        out.attempted += 1;
        out.fail(e);
    }
    out
}

fn run_inner(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let reference = local_reference(&job_list(ctx.seed, 0));
    if ctx.trace {
        return run_traced(ctx, out, &job_list(ctx.seed, 0), &reference);
    }
    let (mut setups, mut walls, mut resumes) = (Vec::new(), Vec::new(), Vec::new());
    let mut error = None;
    let n = passes(ctx, 3, |pass| {
        if error.is_some() {
            return;
        }
        let r = (|| -> Result<(), String> {
            // Set-up is short, so each pass times it several times and
            // keeps the last fleet started. Restarts reuse the workers'
            // cache directories, as a restarted worker would: creating
            // directories on the VM disk takes 0.02-1.5 ms, which alone
            // would move the median.
            let mut started: Option<(Fleet, Coordinator, Vec<MatrixJob>)> = None;
            for _ in 0..SETUP_REPEATS {
                if let Some((old, _, _)) = started.take() {
                    old.shutdown();
                }
                let t = Instant::now();
                let built = suite::all();
                assert_eq!(built.len(), 16);
                let jobs = job_list(ctx.seed, pass as u64);
                let fleet = Fleet::start(&ctx.work.join(format!("pass{pass}")))?;
                let coordinator = fleet.probed(ctx.seed)?;
                setups.push(t.elapsed().as_secs_f64());
                started = Some((fleet, coordinator, jobs));
            }
            let (fleet, mut coordinator, jobs) = started.expect("SETUP_REPEATS > 0");

            let t = Instant::now();
            fleet.open_campaign(&mut coordinator, false)?;
            let cold = coordinator.execute(&jobs)?;
            walls.push(t.elapsed().as_secs_f64());
            drop(coordinator);

            let t = Instant::now();
            let resumed = fleet.coordinator(ctx.seed, true)?.execute(&jobs)?;
            resumes.push(t.elapsed().as_secs_f64());
            check(out, &jobs, &reference, &cold, &resumed);
            fleet.stop();
            Ok(())
        })();
        if let Err(e) = r {
            error = Some(e);
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    out.line(format!(
        "fleet-journal: {} jobs per pass (grids of {CTAS:?} CTAs), {WORKERS} workers x 1 sim worker, \
         {DISPATCH_THREADS} dispatch threads, {n} passes",
        reference.len()
    ));
    out.series("setup_s", "s", &setups);
    out.series("cold_run_s", "s", &walls);
    out.series("wall_s (resume)", "s", &resumes);
    out.metric("setup_s", median(&setups));
    // `wall_s` is the resume, the read path. The cold run's wall is
    // printed above but not gated: it pays two fsyncs per job, and the VM
    // disk's fsync latency moved its median by up to 0.3 between runs.
    // The traced run reports it as `trace.untraced_wall_s`.
    out.metric("wall_s", median(&resumes));
    out.metric("peak_rss_mb", peak_rss_mb());
    Ok(())
}

/// What one traced pass leaves for the per-layer report.
struct TracedPass {
    tracer: Tracer,
    /// Spans of the cold run alone, the part `wall` times.
    cold_spans: Vec<Span>,
    wall: f64,
    attempts: u64,
    backoff_us: u64,
    traces: Vec<Option<JobTrace>>,
    bytes_written: u64,
    replay_ms: f64,
}

/// One traced cold run, its resume and the durable replay.
fn traced_pass(
    ctx: &Ctx,
    out: &mut Outcome,
    jobs: &[MatrixJob],
    reference: &Reference,
    pass: usize,
) -> Result<TracedPass, String> {
    // Traced: the coordinator's dispatch pool issued call by call
    // (`Coordinator::run_traced` per job from 2 threads), then the resume.
    let tracer = Tracer::default();
    let fleet = Fleet::start(&ctx.work.join(format!("traced{pass}")))?;
    let coordinator = fleet.coordinator(ctx.seed, false)?;
    let traces = Mutex::new(vec![None; jobs.len()]);
    let results: Mutex<Vec<Option<CachedResult>>> = Mutex::new(vec![None; jobs.len()]);
    let cursor = std::sync::atomic::AtomicUsize::new(0);
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..DISPATCH_THREADS {
            s.spawn(|| loop {
                let i = cursor.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let (r, trace) = tracer.span("fleet.dispatch", 0, i as u64, |_| {
                    coordinator.run_traced(job)
                });
                results.lock().expect("results lock")[i] = Some(r);
                traces.lock().expect("traces lock")[i] = Some(trace);
            });
        }
    });
    let wall = t.elapsed().as_secs_f64();
    let cold_spans = tracer.take();
    let attempts = coordinator
        .metrics()
        .attempts
        .load(std::sync::atomic::Ordering::Relaxed);
    let backoff_us = coordinator
        .metrics()
        .backoff_us
        .load(std::sync::atomic::Ordering::Relaxed);
    drop(coordinator);
    let cold_traced: Vec<CachedResult> = results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("every job dispatched"))
        .collect();
    // The workers' stores and the campaign's journal and store.
    let bytes_written = dir_bytes(&fleet.dir);
    let journal_path = fleet.journal_dir().join("journal.log");
    let replay_t = Instant::now();
    let replayed = tracer.span("durable.replay", 0, 0, |_| Journal::open(&journal_path));
    let replay_ms = ms(replay_t.elapsed());
    let records = match replayed {
        Ok((_, replay)) => replay.records,
        Err(e) => return Err(format!("journal replay: {e}")),
    };
    out.check(records.len() > jobs.len(), || {
        format!(
            "journal replayed {} records for {} jobs",
            records.len(),
            jobs.len()
        )
    });
    let resumed = fleet.coordinator(ctx.seed, true)?.execute(jobs)?;
    check(out, jobs, reference, &cold_traced, &resumed);

    // The campaign's payloads replayed through the durable layer's own
    // calls: one journal record and one store entry per job.
    let scratch = ctx.work.join(format!("durable-replay{pass}"));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut journal =
        Journal::create(&scratch.join("journal.log")).map_err(|e| format!("journal: {e}"))?;
    let store = ResultStore::open(&scratch.join("store")).map_err(|e| format!("store: {e}"))?;
    let fps: Vec<u64> = jobs
        .iter()
        .map(|j| j.to_spec().expect("fleet job").fingerprint())
        .collect();
    // Several rounds under distinct keys, so the p99s have a tail to stand on.
    let rounds = (0..DURABLE_ROUNDS).flat_map(|round| {
        fps.iter()
            .zip(&cold_traced)
            .map(move |(fp, r)| (fp ^ round, r))
    });
    for (i, (fp, r)) in rounds.enumerate() {
        let id = i as u64;
        tracer.span("durable.journal_append", 0, id, |_| {
            journal.append(&format!("job-ok fp={fp:016x}"))
        });
        tracer.span("durable.journal_sync", 0, id, |_| journal.sync());
        if let Ok(rep) = r {
            let payload = wire::report_to_json(rep).encode();
            tracer.span("durable.store_put", 0, id, |_| {
                store.put(fp, payload.as_bytes())
            });
            let got = tracer.span("durable.store_get", 0, id, |_| store.get(fp));
            out.check(got.as_deref() == Some(payload.as_bytes()), || {
                "store get != put".into()
            });
        }
    }
    drop(journal);
    let _ = std::fs::remove_dir_all(&scratch);
    fleet.stop();

    Ok(TracedPass {
        tracer,
        cold_spans,
        wall,
        attempts,
        backoff_us,
        traces: traces.into_inner().expect("traces lock"),
        bytes_written,
        replay_ms,
    })
}

fn run_traced(
    ctx: &Ctx,
    out: &mut Outcome,
    jobs: &[MatrixJob],
    reference: &Reference,
) -> Result<(), String> {
    // An untraced warm-up round, then untraced and traced rounds in pairs
    // until the time budget is spent; the per-layer figures come from the
    // last traced round, the overhead from the median walls.
    let untraced_round = |out: &mut Outcome, name: String| -> Result<f64, String> {
        let fleet = Fleet::start(&ctx.work.join(name))?;
        let t = Instant::now();
        let cold = fleet.coordinator(ctx.seed, false)?.execute(jobs)?;
        let wall = t.elapsed().as_secs_f64();
        let resumed = fleet.coordinator(ctx.seed, true)?.execute(jobs)?;
        check(out, jobs, reference, &cold, &resumed);
        fleet.stop();
        Ok(wall)
    };
    untraced_round(out, "warm-up".into())?;
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    let mut error = None;
    passes(ctx, 1, |pass| {
        if error.is_some() {
            return;
        }
        let r = untraced_round(out, format!("untraced{pass}"))
            .and_then(|w| traced_pass(ctx, out, jobs, reference, pass).map(|t| (w, t)));
        match r {
            Ok((w, t)) => {
                untraced_walls.push(w);
                traced_walls.push(t.wall);
                last = Some(t);
            }
            Err(e) => error = Some(e),
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    let TracedPass {
        tracer,
        cold_spans,
        attempts,
        backoff_us,
        traces,
        bytes_written,
        replay_ms,
        ..
    } = last.expect("at least one traced round");

    let mut spans = cold_spans.clone();
    spans.extend(tracer.take());
    crate::write_spans(ctx, &spans);
    let profile = Profile::of(&spans);
    out.line(format!(
        "fleet-journal traced pass: {} jobs, {} spans",
        jobs.len(),
        spans.len()
    ));
    out.line(profile.render());

    out.line("layer fleet");
    let dispatch = profile.samples("fleet.dispatch", ms);
    layer_percentile(out, "fleet.dispatch_ms.p50", &dispatch, 50.0);
    // Dispatch time minus the local simulation time of the same job.
    let overhead: Vec<f64> = spans
        .iter()
        .filter(|sp| sp.name == "fleet.dispatch")
        .filter_map(|sp| {
            let local = reference.get(&key(&jobs[sp.job as usize]))?.1;
            Some(ms(sp.duration()) - ms(local))
        })
        .collect();
    layer_percentile(out, "fleet.dispatch_overhead_ms.p50", &overhead, 50.0);
    out.metric(
        "fleet.attempts_per_job",
        ratio(attempts as f64, jobs.len() as f64),
    );
    let ring = Ring::new(WORKERS, FleetConfig::default().vnodes);
    let affine = jobs
        .iter()
        .zip(&traces)
        .filter(|(j, t)| {
            let first = ring.route(j.to_spec().expect("fleet job").fingerprint())[0];
            t.as_ref().and_then(|t| t.served_by) == Some(first)
        })
        .count();
    out.metric(
        "fleet.affinity_hit_ratio",
        ratio(affine as f64, jobs.len() as f64),
    );
    out.metric("fleet.backoff_s", backoff_us as f64 / 1e6);

    out.line("layer durable");
    layer_percentile(
        out,
        "durable.journal_append_us.p50",
        &profile.samples("durable.journal_append", us),
        50.0,
    );
    let sync = profile.samples("durable.journal_sync", ms);
    layer_percentile(out, "durable.journal_sync_ms.p50", &sync, 50.0);
    layer_percentile(out, "durable.journal_sync_ms.p99", &sync, 99.0);
    let put = profile.samples("durable.store_put", ms);
    layer_percentile(out, "durable.store_put_ms.p50", &put, 50.0);
    layer_percentile(out, "durable.store_put_ms.p99", &put, 99.0);
    layer_percentile(
        out,
        "durable.store_get_us.p50",
        &profile.samples("durable.store_get", us),
        50.0,
    );
    out.metric("durable.replay_ms", replay_ms);
    out.metric("durable.bytes_written", bytes_written as f64);
    out.metric(
        "durable.degradations",
        regmutex_durable::degradation_count() as f64,
    );
    // The durable replay runs after the cold run: only the cold run's
    // spans are held against its wall.
    crate::trace_summary(out, &untraced_walls, &traced_walls, &cold_spans);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_permutes_the_job_list() {
        let a = job_list(5, 0);
        assert_eq!(a, job_list(5, 0));
        assert_ne!(a, job_list(6, 0));
        assert_ne!(a, job_list(5, 1));
        assert_eq!(a.len(), 31 * 5 * CTAS.len());
    }
}
