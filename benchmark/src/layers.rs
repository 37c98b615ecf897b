//! The runner path decomposed into its public calls, for traced passes.
//!
//! Untraced passes call [`Runner::run_all`](regmutex_bench::Runner::run_all),
//! a composite. A traced pass issues the same steps itself on the same
//! inputs, each in a span: fingerprint → probe → compile → run_compiled →
//! insert, with the same dedup rule and the same worker count. The
//! results must equal the composite's (checked by the workloads and by a
//! self-test below).

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use regmutex::{RunError, Session};
use regmutex_bench::{CachedResult, JobSpec, ResultCache};
use regmutex_sim::{occupancy, KernelResources, Limiter, SimStats, StallReason};

use crate::outcome::{layer_percentile, Outcome};
use crate::spans::{Profile, Tracer};
use crate::stats::{ms, ratio, us};

/// Simulated counters summed over every simulation a pass ran.
#[derive(Debug, Default, Clone)]
pub struct SimTotals {
    pub runs: u64,
    pub cycles: u64,
    pub instructions: u64,
    pub skipped_cycles: u64,
    pub step_calls: u64,
    pub acquire_attempts: u64,
    pub acquire_successes: u64,
    pub spills: u64,
    pub resident_warp_cycles: u64,
    pub empty_scheduler_cycles: u64,
    pub stalls: [u64; 5],
}

impl SimTotals {
    pub fn add(&mut self, s: &SimStats) {
        self.runs += 1;
        self.cycles += s.cycles;
        self.instructions += s.instructions;
        self.skipped_cycles += s.skipped_cycles;
        self.step_calls += s.step_calls;
        self.acquire_attempts += s.acquire_attempts;
        self.acquire_successes += s.acquire_successes;
        self.spills += s.spills;
        self.resident_warp_cycles += s.resident_warp_cycles;
        self.empty_scheduler_cycles += s.empty_scheduler_cycles;
        for (i, r) in StallReason::ALL.iter().enumerate() {
            self.stalls[i] += s.stall_cycles.get(r).copied().unwrap_or(0);
        }
    }

    /// Sum over the distinct results of a batch (duplicates simulate once).
    pub fn of_unique<'a>(results: impl IntoIterator<Item = (u64, &'a CachedResult)>) -> SimTotals {
        let mut seen = HashSet::new();
        let mut t = SimTotals::default();
        for (key, r) in results {
            if let Ok(rep) = r {
                if seen.insert(key) {
                    t.add(&rep.stats);
                }
            }
        }
        t
    }
}

/// Compile calls and how many register-limited kernels got transformed.
#[derive(Debug, Default)]
pub struct CompileTally {
    pub calls: u64,
    pub reg_limited: u64,
    pub transformed: u64,
}

/// What a traced batch measured besides its results.
#[derive(Debug, Default)]
pub struct BatchStats {
    pub wall: Duration,
    /// Summed job time across workers.
    pub busy: Duration,
    /// Time the first worker to finish sat idle until the last finished.
    pub tail: Duration,
    pub workers: usize,
}

/// Everything the traced runner path accumulates across batches.
#[derive(Default)]
pub struct Traced {
    pub tracer: Tracer,
    pub compile: Mutex<CompileTally>,
    pub sim: Mutex<SimTotals>,
    pub batches: Mutex<Vec<BatchStats>>,
}

impl Traced {
    /// [`regmutex_bench::Runner::run_all`] as individually traced public
    /// calls, over `cache`, on `jobs` worker threads.
    pub fn run_batch(
        &self,
        cache: &ResultCache,
        jobs: usize,
        specs: &[JobSpec],
        parent: u64,
    ) -> Vec<CachedResult> {
        let tr = &self.tracer;
        let started = Instant::now();
        let batch = tr.open();
        let keys: Vec<u64> = specs
            .iter()
            .enumerate()
            .map(|(i, s)| tr.span("runner.fingerprint", batch, i as u64, |_| s.fingerprint()))
            .collect();
        let mut local: HashMap<u64, CachedResult> = HashMap::new();
        let mut todo: Vec<usize> = Vec::new();
        let mut scheduled: HashSet<u64> = HashSet::new();
        for (i, k) in keys.iter().enumerate() {
            if local.contains_key(k) {
                cache.note_hit();
            } else if let Some(v) = tr.span("runner.probe", batch, i as u64, |_| cache.probe(*k)) {
                local.insert(*k, v);
                cache.note_hit();
            } else if scheduled.insert(*k) {
                todo.push(i);
                cache.note_miss();
            } else {
                cache.note_hit();
            }
        }

        let fresh: Mutex<Vec<(u64, CachedResult)>> = Mutex::new(Vec::new());
        let cursor = AtomicUsize::new(0);
        let workers = jobs.max(1).min(todo.len().max(1));
        let mut busy = Duration::ZERO;
        let mut last_ends: Vec<Instant> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut busy = Duration::ZERO;
                        let mut last_end = Instant::now();
                        loop {
                            let n = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&i) = todo.get(n) else { break };
                            let t0 = Instant::now();
                            let result = tr.span("runner.job", batch, i as u64, |job| {
                                self.job(&specs[i], job, i as u64)
                            });
                            last_end = Instant::now();
                            busy += last_end - t0;
                            fresh
                                .lock()
                                .expect("fresh results lock")
                                .push((keys[i], result));
                        }
                        (busy, last_end)
                    })
                })
                .collect();
            for h in handles {
                let (b, end) = h.join().expect("traced runner worker panicked");
                busy += b;
                last_ends.push(end);
            }
        });

        for (k, r) in fresh.into_inner().expect("fresh results lock") {
            if let Ok(rep) = &r {
                self.sim.lock().expect("sim totals lock").add(&rep.stats);
            }
            tr.span("runner.insert", batch, 0, |_| cache.insert(k, r.clone()));
            local.insert(k, r);
        }
        let out = keys
            .iter()
            .map(|k| local.get(k).expect("every submitted job resolved").clone())
            .collect();
        tr.close(batch, parent, "runner.batch", 0, started);
        let tail = match (last_ends.iter().min(), last_ends.iter().max()) {
            (Some(a), Some(b)) if workers > 1 => *b - *a,
            _ => Duration::ZERO,
        };
        self.batches
            .lock()
            .expect("batch stats lock")
            .push(BatchStats {
                wall: started.elapsed(),
                busy,
                tail,
                workers,
            });
        out
    }

    /// One job: compile, then simulate, behind a panic boundary like the
    /// runner's own.
    fn job(&self, spec: &JobSpec, parent: u64, id: u64) -> CachedResult {
        let tr = &self.tracer;
        let mut cfg = spec.cfg.clone();
        if let Some(budget) = spec.cycle_budget {
            cfg.watchdog_cycles = cfg.watchdog_cycles.min(budget);
        }
        let session = Session::with_options(cfg, spec.options.clone());
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let compiled = tr.span("compiler.compile", parent, id, |_| {
                session.compile(&spec.kernel)
            })?;
            self.tally_compile(&session, &compiled);
            tr.span("sim.run_compiled", parent, id, |_| {
                session.run_compiled(&compiled, spec.launch, spec.technique)
            })
        }));
        outcome.unwrap_or_else(|_| {
            Err(RunError::Panicked(
                "simulation panicked in traced pass".into(),
            ))
        })
    }

    fn tally_compile(&self, session: &Session, compiled: &regmutex_compiler::CompiledKernel) {
        let k = &compiled.original;
        let occ = occupancy::theoretical(
            session.config(),
            KernelResources::new(k.regs_per_thread, k.shmem_per_cta, k.threads_per_cta),
        );
        let mut t = self.compile.lock().expect("compile tally lock");
        t.calls += 1;
        if occ.limiter == Limiter::Registers {
            t.reg_limited += 1;
            if compiled.is_transformed() {
                t.transformed += 1;
            }
        }
    }

    /// Emit the compiler, sim, core and runner layer metrics.
    pub fn emit(&self, out: &mut Outcome, profile: &Profile, cache: &ResultCache) {
        let compile = self.compile.lock().expect("compile tally lock");
        out.line("layer compiler");
        out.metric("compiler.calls", compile.calls as f64);
        layer_percentile(
            out,
            "compiler.ms.p50",
            &profile.samples("compiler.compile", ms),
            50.0,
        );
        layer_percentile(
            out,
            "compiler.ms.p99",
            &profile.samples("compiler.compile", ms),
            99.0,
        );
        out.metric("compiler.share", profile.share("compiler"));
        out.metric(
            "compiler.transformed_ratio",
            ratio(compile.transformed as f64, compile.reg_limited as f64),
        );

        let sim = self.sim.lock().expect("sim totals lock");
        out.line("layer sim");
        let sim_samples = profile.samples("sim.run_compiled", ms);
        let sim_secs: f64 = sim_samples.iter().sum::<f64>() / 1e3;
        out.metric("sim.calls", sim_samples.len() as f64);
        layer_percentile(out, "sim.ms.p50", &sim_samples, 50.0);
        layer_percentile(out, "sim.ms.p99", &sim_samples, 99.0);
        out.metric("sim.share", profile.share("sim"));
        out.metric(
            "sim.mcycles_per_s",
            ratio(sim.cycles as f64 / 1e6, sim_secs),
        );
        out.metric(
            "sim.minstr_per_s",
            ratio(sim.instructions as f64 / 1e6, sim_secs),
        );
        out.metric(
            "sim.skipped_cycle_share",
            ratio(sim.skipped_cycles as f64, sim.cycles as f64),
        );
        out.metric(
            "sim.step_calls_per_kcycle",
            ratio(1e3 * sim.step_calls as f64, sim.cycles as f64),
        );
        emit_core(out, &sim);

        out.line("layer runner");
        layer_percentile(
            out,
            "runner.fingerprint_us.p50",
            &profile.samples("runner.fingerprint", us),
            50.0,
        );
        out.metric("runner.cache_hits", cache.hits() as f64);
        out.metric("runner.cache_misses", cache.misses() as f64);
        out.metric(
            "runner.hit_ratio",
            ratio(cache.hits() as f64, (cache.hits() + cache.misses()) as f64),
        );
        out.metric("runner.evictions", cache.evictions() as f64);
        let batches = self.batches.lock().expect("batch stats lock");
        let busy: f64 = batches.iter().map(|b| b.busy.as_secs_f64()).sum();
        let capacity: f64 = batches
            .iter()
            .map(|b| b.wall.as_secs_f64() * b.workers as f64)
            .sum();
        out.metric("runner.busy_share", ratio(busy, capacity));
        out.metric("runner.tail_ms", batches.iter().map(|b| ms(b.tail)).sum());
    }
}

/// Simulated register-manager counters (identical in traced and
/// untraced runs; only the model moves them).
pub fn emit_core(out: &mut Outcome, sim: &SimTotals) {
    out.line("layer core");
    out.metric("core.acquire_attempts", sim.acquire_attempts as f64);
    out.metric(
        "core.acquire_success_rate",
        ratio(sim.acquire_successes as f64, sim.acquire_attempts as f64),
    );
    out.metric("core.spills", sim.spills as f64);
    out.metric(
        "core.achieved_occupancy_warps",
        ratio(sim.resident_warp_cycles as f64, sim.cycles as f64),
    );
    // Scheduler-cycles: one issue per instruction, plus every stalled or
    // empty scheduler-cycle.
    let stalled: u64 = sim.stalls.iter().sum();
    let sched = (sim.instructions + stalled + sim.empty_scheduler_cycles) as f64;
    out.metric(
        "core.empty_scheduler_share",
        ratio(sim.empty_scheduler_cycles as f64, sched),
    );
    for (i, r) in StallReason::ALL.iter().enumerate() {
        out.metric(
            format!("core.stall_cpi.{}", r.as_str()),
            ratio(sim.stalls[i] as f64, sim.instructions as f64),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex::Technique;
    use regmutex_bench::{MatrixJob, Runner, DEFAULT_CACHE_BUDGET};

    #[test]
    fn traced_and_untraced_runner_paths_agree() {
        let mut specs: Vec<JobSpec> = Vec::new();
        for app in ["Gaussian", "BFS", "SPMV"] {
            for t in [Technique::Baseline, Technique::RegMutex, Technique::Rfv] {
                let mut job = MatrixJob::new(app, t);
                job.ctas = Some(2);
                specs.push(job.to_spec().unwrap());
            }
        }
        specs.push(specs[0].clone()); // an in-batch duplicate
        let untraced = Runner::new(2).run_all(&specs);
        let traced = Traced::default();
        let cache = ResultCache::new(DEFAULT_CACHE_BUDGET);
        let got = traced.run_batch(&cache, 2, &specs, 0);
        assert_eq!(got.len(), untraced.len());
        for (a, b) in got.iter().zip(&untraced) {
            assert_eq!(a.as_ref().unwrap().stats, b.as_ref().unwrap().stats);
        }
        assert_eq!(cache.misses(), 9);
        assert_eq!(cache.hits(), 1);
        let spans = traced.tracer.take();
        assert_eq!(
            spans
                .iter()
                .filter(|s| s.name == "sim.run_compiled")
                .count(),
            9
        );
        assert_eq!(traced.compile.lock().unwrap().calls, 9);
    }
}
