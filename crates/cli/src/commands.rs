//! Command implementations. Each returns its output as a `String` so tests
//! can assert on it; `main.rs` prints.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use regmutex::{cycle_reduction_percent, Session, Technique, ALL_TECHNIQUES};
use regmutex_bench::chaos::{self, run_campaign, run_campaign_durable, CampaignSpec, ChaosRun};
use regmutex_bench::{runner::default_jobs, Fig07Source, JobExecutor, JobSource, JobSpec, Runner};
use regmutex_compiler::{analyze, live_trace, CompileOptions};
use regmutex_durable::{decode_job_ok, Campaign};
use regmutex_fleet::{
    is_checkpoint, run_fleet_campaign, run_fleet_loadgen, Coordinator, FleetCampaignSpec,
    FleetConfig, FleetJournal, FleetLoadgenConfig,
};
use regmutex_server::{signal, DiskTier, LoadgenConfig, ServerConfig};
use regmutex_sim::{GpuConfig, LaunchConfig};
use regmutex_workloads::{suite, Workload};

/// Exit code for a graceful SIGINT/SIGTERM checkpoint: the campaign is
/// incomplete but its progress is journaled and `--resume` will finish it.
/// Distinct from 0 (clean), 1 (failure), 2 (usage), 3 (partial rows).
pub const CHECKPOINT_EXIT: i32 = 4;

/// The standard checkpoint epilogue: flush already happened, tell the
/// user how to pick the campaign back up.
fn checkpoint_hint(verb: &str, dir: &Path, completed: u64, total: u64) -> String {
    format!(
        "{verb}: checkpointed at {completed} of {total}; \
         resume with --journal {} --resume\n",
        dir.display()
    )
}

/// Errors surfaced to the user.
#[derive(Debug)]
pub struct CommandError(pub String);

impl core::fmt::Display for CommandError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CommandError {}

fn lookup(app: &str) -> Result<Workload, CommandError> {
    suite::by_name(app).ok_or_else(|| {
        let names: Vec<&str> = suite::all().iter().map(|w| w.name).collect();
        CommandError(format!(
            "unknown workload '{app}'; available: {}",
            names.join(", ")
        ))
    })
}

fn config(half_rf: bool) -> GpuConfig {
    if half_rf {
        GpuConfig::gtx480_half_rf()
    } else {
        GpuConfig::gtx480()
    }
}

/// `list [--json]`
pub fn list(json: bool) -> String {
    if json {
        let mut out = regmutex_server::wire::workloads_json().encode();
        out.push('\n');
        return out;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>5} {:>5} {:>5} {:>7} {:>6}  group",
        "app", "regs", "|Bs|", "tpc", "shmem", "grid"
    );
    for w in suite::all() {
        let _ = writeln!(
            out,
            "{:<16} {:>5} {:>5} {:>5} {:>7} {:>6}  {:?}",
            w.name,
            w.table_regs,
            w.table_bs,
            w.kernel.threads_per_cta,
            w.kernel.shmem_per_cta,
            w.grid_ctas,
            w.group
        );
    }
    out
}

/// `disasm <app>`
pub fn disasm(app: &str, transformed: bool, liveness: bool) -> Result<String, CommandError> {
    let w = lookup(app)?;
    let session = Session::new(w.table_config());
    let kernel = if transformed {
        let compiled = session
            .compile(&w.kernel)
            .map_err(|e| CommandError(e.to_string()))?;
        compiled.kernel
    } else {
        w.kernel.clone()
    };
    if !liveness {
        return Ok(kernel.to_string());
    }
    let lv = analyze(&kernel);
    let mut out = String::new();
    let _ = writeln!(
        out,
        ".kernel {} // regs={} (live column = live-in count)",
        kernel.name, kernel.regs_per_thread
    );
    for (pc, i) in kernel.instrs.iter().enumerate() {
        let _ = writeln!(out, "  {pc:4}: [{:>2} live] {i}", lv.count_in(pc));
    }
    Ok(out)
}

/// `run <app> ...`
#[allow(clippy::too_many_arguments)]
pub fn run(
    app: &str,
    technique: Technique,
    half_rf: bool,
    ctas: Option<u32>,
    force_es: Option<u16>,
    watchdog_cycles: Option<u64>,
    stall_multiplier: Option<u32>,
    no_cycle_skip: bool,
) -> Result<String, CommandError> {
    let w = lookup(app)?;
    let mut cfg = config(half_rf);
    if let Some(wd) = watchdog_cycles {
        cfg.watchdog_cycles = wd;
    }
    if let Some(m) = stall_multiplier {
        cfg.stall_multiplier = m;
    }
    cfg.cycle_skipping = !no_cycle_skip;
    let session = Session::with_options(
        cfg,
        CompileOptions {
            force_es,
            force_apply: force_es.is_some(),
        },
    );
    let launch = LaunchConfig::new(ctas.unwrap_or(w.grid_ctas));
    let rep = session
        .run(&w.kernel, launch, technique)
        .map_err(|e| CommandError(format!("{}/{technique}: {e}", w.name)))?;
    let mut out = String::new();
    let _ = writeln!(out, "workload   : {} ({} CTAs)", w.name, launch.grid_ctas);
    let _ = writeln!(
        out,
        "arch       : {}",
        if half_rf {
            "GTX480 half RF (64 KB/SM)"
        } else {
            "GTX480 (128 KB/SM)"
        }
    );
    let _ = writeln!(out, "technique  : {technique}");
    if let Some(p) = rep.plan {
        let _ = writeln!(
            out,
            "plan       : |Bs|={} |Es|={} sections={} occupancy={} warps",
            p.bs, p.es, p.srp_sections, p.occupancy_warps
        );
    }
    let _ = writeln!(out, "cycles     : {}", rep.cycles());
    let _ = writeln!(out, "ipc        : {:.3}", rep.stats.ipc());
    let _ = writeln!(
        out,
        "occupancy  : {}% theoretical, {:.1} warps achieved",
        rep.occupancy_percent(),
        rep.stats.achieved_occupancy_warps()
    );
    if rep.stats.acquire_attempts > 0 {
        let _ = writeln!(
            out,
            "acquires   : {} attempts, {:.1}% successful",
            rep.stats.acquire_attempts,
            100.0 * rep.acquire_success_rate()
        );
    }
    if rep.stats.spills > 0 {
        let _ = writeln!(out, "spills     : {}", rep.stats.spills);
    }
    let _ = writeln!(out, "storage    : +{} bits/SM", rep.storage_overhead_bits);
    let _ = writeln!(out, "checksum   : {:#018x}", rep.stats.checksum);
    Ok(out)
}

/// `bench-loop ...` — wall-clock the device loop with cycle skipping on vs
/// off and write the measurements to `out_path` as JSON. The second element
/// of the pair is the process exit code: 1 when the two loops disagree on
/// any statistic, or when skipping is more than 10% slower overall.
///
/// Runs go through [`Session`] directly — never the batch [`Runner`], whose
/// result cache would satisfy repeat runs without simulating and falsify
/// the timings.
pub fn bench_loop(
    apps: &[String],
    iters: usize,
    out_path: &str,
) -> Result<(String, i32), CommandError> {
    use regmutex_server::json::Json;
    use std::time::Instant;

    // (row label, workload, grid override)
    let mut basket: Vec<(String, Workload, Option<u32>)> = Vec::new();
    if apps.is_empty() {
        // Default basket: a memory-latency-dominated workload at full
        // occupancy, the same workload at minimal occupancy (one CTA per
        // simulated SM — long fully stalled stretches, the skip loop's best
        // case), and a control-heavy one as the adversarial control.
        let num_sms = GpuConfig::gtx480().num_sms;
        basket.push(("Gaussian".into(), lookup("Gaussian")?, None));
        basket.push(("Gaussian-lowocc".into(), lookup("Gaussian")?, Some(num_sms)));
        basket.push(("BFS".into(), lookup("BFS")?, None));
    } else {
        for a in apps {
            basket.push((a.clone(), lookup(a)?, None));
        }
    }

    let mut out = String::new();
    let mut rows: Vec<Json> = Vec::new();
    let mut code = 0;
    let (mut skip_total_ms, mut tick_total_ms) = (0.0f64, 0.0f64);
    let _ = writeln!(
        out,
        "simulation-loop benchmark — median wall clock of {iters} run(s) per mode\n"
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>10} {:>10} {:>8}",
        "workload", "cycles", "skip ms", "tick ms", "speedup"
    );
    for (label, w, ctas) in &basket {
        let launch = LaunchConfig::new(ctas.unwrap_or(w.grid_ctas));
        let mut medians = [0.0f64; 2];
        let mut reports = Vec::with_capacity(2);
        for (mode, skipping) in [true, false].into_iter().enumerate() {
            let mut cfg = config(false);
            cfg.cycle_skipping = skipping;
            let session = Session::new(cfg);
            let compiled = session
                .compile(&w.kernel)
                .map_err(|e| CommandError(format!("{label}: {e}")))?;
            let mut walls = Vec::with_capacity(iters);
            let mut rep = None;
            for _ in 0..iters {
                let t0 = Instant::now();
                let r = session
                    .run_compiled(&compiled, launch, Technique::RegMutex)
                    .map_err(|e| CommandError(format!("{label}: {e}")))?;
                walls.push(t0.elapsed().as_secs_f64() * 1e3);
                rep = Some(r);
            }
            walls.sort_by(f64::total_cmp);
            medians[mode] = walls[walls.len() / 2];
            reports.push(rep.expect("iters >= 1"));
        }
        let [skip_ms, tick_ms] = medians;
        skip_total_ms += skip_ms;
        tick_total_ms += tick_ms;

        // The two loops must agree on every statistic except the loop's own
        // accounting of itself.
        let strip = |r: &regmutex::RunReport| {
            let mut s = r.stats.clone();
            s.skipped_cycles = 0;
            s.step_calls = 0;
            s
        };
        if strip(&reports[0]) != strip(&reports[1]) {
            let _ = writeln!(
                out,
                "FAIL: {label}: cycle skipping changed the simulation\n  skip: {:?}\n  tick: {:?}",
                reports[0].stats, reports[1].stats
            );
            code = 1;
        }
        let cycles = reports[0].cycles();
        let _ = writeln!(
            out,
            "{label:<18} {cycles:>12} {skip_ms:>10.2} {tick_ms:>10.2} {:>7.1}x",
            tick_ms / skip_ms.max(1e-9)
        );
        for (skipping, wall_ms) in [(true, skip_ms), (false, tick_ms)] {
            rows.push(Json::Obj(vec![
                ("workload".into(), Json::Str(label.clone())),
                ("cycles".into(), Json::U64(cycles)),
                ("wall_ms".into(), Json::F64(wall_ms)),
                (
                    "cycles_per_sec".into(),
                    Json::F64(cycles as f64 / (wall_ms / 1e3).max(1e-12)),
                ),
                ("skipping".into(), Json::Bool(skipping)),
            ]));
        }
    }

    // The skip loop must never be a real regression: allow 10% plus a small
    // absolute slack so sub-millisecond baskets don't flake.
    if skip_total_ms > 1.10 * tick_total_ms + 5.0 {
        let _ = writeln!(
            out,
            "FAIL: skipping total {skip_total_ms:.2} ms > 1.10 x tick total {tick_total_ms:.2} ms + 5 ms"
        );
        code = 1;
    }
    let report = Json::Obj(vec![
        ("iters".into(), Json::U64(iters as u64)),
        ("rows".into(), Json::Arr(rows)),
    ]);
    std::fs::write(out_path, report.encode() + "\n")
        .map_err(|e| CommandError(format!("write {out_path}: {e}")))?;
    let _ = writeln!(
        out,
        "\ntotal: skip {skip_total_ms:.2} ms vs tick {tick_total_ms:.2} ms ({:.1}x); wrote {out_path}",
        tick_total_ms / skip_total_ms.max(1e-9)
    );
    Ok((out, code))
}

/// `compare <app>`
pub fn compare(app: &str, half_rf: bool, jobs: Option<usize>) -> Result<String, CommandError> {
    let w = lookup(app)?;
    let cfg = config(half_rf);
    let launch = w.launch();
    let runner = Runner::new(jobs.unwrap_or_else(default_jobs));
    let specs: Vec<JobSpec> = ALL_TECHNIQUES
        .iter()
        .map(|&t| JobSpec::new(format!("{}/{t}", w.name), &w.kernel, &cfg, launch, t))
        .collect();
    let mut reports = Vec::with_capacity(specs.len());
    for (result, spec) in runner.run_all(&specs).into_iter().zip(&specs) {
        reports.push(result.map_err(|e| CommandError(format!("{}: {e}", spec.label)))?);
    }
    let base = reports
        .iter()
        .find(|r| r.technique == Technique::Baseline)
        .expect("ALL_TECHNIQUES includes the baseline");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {} — baseline {} cycles, occupancy {}%\n",
        w.name,
        if half_rf { "half RF" } else { "GTX480" },
        base.cycles(),
        base.occupancy_percent()
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>10} {:>12}",
        "technique", "cycles", "reduction", "occupancy", "storage bits"
    );
    for rep in &reports {
        if rep.stats.checksum != base.stats.checksum {
            return Err(CommandError(format!(
                "{}: functional divergence",
                rep.technique
            )));
        }
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>9.1}% {:>9}% {:>12}",
            rep.technique.to_string(),
            rep.cycles(),
            cycle_reduction_percent(base, rep),
            rep.occupancy_percent(),
            rep.storage_overhead_bits
        );
    }
    Ok(out)
}

/// `trace <app>`
pub fn trace(app: &str, max_steps: usize) -> Result<String, CommandError> {
    let w = lookup(app)?;
    let t = live_trace(&w.kernel, max_steps);
    let mut out = String::new();
    let _ = writeln!(out, "# {} — live% per executed instruction", w.name);
    let _ = writeln!(out, "instruction,live_percent");
    for (i, p) in t.percentages().iter().enumerate() {
        let _ = writeln!(out, "{i},{p:.2}");
    }
    if t.truncated {
        let _ = writeln!(out, "# truncated at {max_steps} steps");
    }
    Ok(out)
}

/// Open the content-addressed result store under a campaign's journal
/// directory.
fn result_store(dir: &Path) -> Result<Arc<DiskTier>, CommandError> {
    DiskTier::shared(dir)
        .map_err(|e| CommandError(format!("open result store in {}: {e}", dir.display())))
}

/// `sweep <app>`. The second element of the pair is the process exit code:
/// 0 when every `|Es|` row simulated, 3 when any row errored (the table
/// still renders — partial results beat none), [`CHECKPOINT_EXIT`] when a
/// journaled run was interrupted by SIGINT/SIGTERM.
pub fn sweep(
    app: &str,
    jobs: Option<usize>,
    journal_dir: Option<&str>,
    resume: bool,
) -> Result<(String, i32), CommandError> {
    let w = lookup(app)?;
    let cfg = w.table_config();
    let mut runner = Runner::new(jobs.unwrap_or_else(default_jobs));
    const ES_VALUES: [u16; 6] = [2, 4, 6, 8, 10, 12];

    let mut specs = vec![JobSpec::new(
        format!("{}/baseline", w.name),
        &w.kernel,
        &cfg,
        w.launch(),
        Technique::Baseline,
    )];
    for es in ES_VALUES {
        specs.push(
            JobSpec::new(
                format!("{}/|Es|={es}", w.name),
                &w.kernel,
                &cfg,
                w.launch(),
                Technique::RegMutex,
            )
            .with_options(CompileOptions {
                force_es: Some(es),
                force_apply: true,
            }),
        );
    }
    let collected = match journal_dir {
        None => runner.run_all(&specs),
        Some(dir) => {
            // Durable mode: persist results content-addressed, journal
            // completions, and poll for SIGINT/SIGTERM between batches.
            // The workload identity is pinned; results themselves live in
            // the store the runner probes before simulating, so replayed
            // rows cost a disk read, not a simulation.
            signal::install();
            let dir = Path::new(dir);
            runner.set_tier(result_store(dir)?);
            let meta = format!("meta kind=sweep app={app}");
            let journal =
                Campaign::open(dir, &meta, resume, "sweep", decode_job_ok).map_err(CommandError)?;
            let mut collected = Vec::with_capacity(specs.len());
            for batch in specs.chunks(runner.jobs().max(1)) {
                if signal::triggered() {
                    journal.sync();
                    let msg =
                        checkpoint_hint("sweep", dir, collected.len() as u64, specs.len() as u64);
                    eprint!("{msg}");
                    return Ok((String::new(), CHECKPOINT_EXIT));
                }
                let results = runner.run_all(batch);
                for (result, spec) in results.iter().zip(batch) {
                    if result.is_ok() {
                        journal.job_ok(spec.fingerprint());
                    }
                }
                collected.extend(results);
            }
            journal.sync();
            collected
        }
    };
    let mut results = collected.into_iter();
    let base = results
        .next()
        .expect("baseline job submitted")
        .map_err(|e| CommandError(format!("{}/baseline: {e}", w.name)))?;

    let heuristic = Session::new(cfg.clone())
        .compile(&w.kernel)
        .map_err(|e| CommandError(e.to_string()))?
        .plan
        .map(|p| p.es);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} |Es| sweep (baseline {} cycles; * = heuristic pick)\n",
        w.name,
        base.cycles()
    );
    let _ = writeln!(
        out,
        "{:>5} {:>10} {:>10} {:>10} {:>9}",
        "|Es|", "cycles", "reduction", "occupancy", "acq-rate"
    );
    let mut failed = false;
    for (es, result) in ES_VALUES.into_iter().zip(results) {
        match result {
            Ok(rep) if rep.plan.is_some() => {
                let mark = if heuristic == Some(es) { "*" } else { " " };
                let _ = writeln!(
                    out,
                    "{es:>4}{mark} {:>10} {:>9.1}% {:>9}% {:>8.1}%",
                    rep.cycles(),
                    cycle_reduction_percent(&base, &rep),
                    rep.occupancy_percent(),
                    100.0 * rep.acquire_success_rate()
                );
            }
            Ok(_) => {
                let _ = writeln!(out, "{es:>5} {:>10}", "not viable");
            }
            Err(e) => {
                failed = true;
                let _ = writeln!(out, "{es:>5} {}/regmutex |Es|={es}: error: {e}", w.name);
            }
        }
    }
    Ok((out, if failed { 3 } else { 0 }))
}

/// `chaos [<app>...]`. The second element of the pair is the process exit
/// code: 1 when the campaign observed silent corruption, or when
/// `expect_detections` is set and some fault class was never caught;
/// [`CHECKPOINT_EXIT`] when a journaled run was interrupted.
#[allow(clippy::too_many_arguments)]
pub fn chaos(
    apps: &[String],
    seeds: u64,
    technique: Technique,
    jobs: Option<usize>,
    watchdog_cycles: Option<u64>,
    stall_multiplier: Option<u32>,
    expect_detections: bool,
    journal_dir: Option<&str>,
    resume: bool,
) -> Result<(String, i32), CommandError> {
    let mut spec = CampaignSpec::default_campaign(jobs.unwrap_or_else(default_jobs));
    if !apps.is_empty() {
        spec.workloads = apps.to_vec();
    }
    spec.seeds = seeds;
    spec.technique = technique;
    spec.watchdog_cycles = watchdog_cycles;
    spec.stall_multiplier = stall_multiplier;
    let report = match journal_dir {
        None => run_campaign(&spec).map_err(CommandError)?,
        Some(dir) => {
            signal::install();
            let dir = Path::new(dir);
            let meta = chaos::meta_line(&spec);
            let journal =
                Campaign::open(dir, &meta, resume, "chaos", chaos::parse_injection_record)
                    .map_err(CommandError)?;
            let cancel: &(dyn Fn() -> bool + Sync) = &signal::triggered;
            match run_campaign_durable(&spec, Some(&journal), Some(cancel)).map_err(CommandError)? {
                ChaosRun::Complete(report) => report,
                ChaosRun::Checkpointed { completed, total } => {
                    let msg = checkpoint_hint("chaos", dir, completed as u64, total as u64);
                    eprint!("{msg}");
                    return Ok((String::new(), CHECKPOINT_EXIT));
                }
            }
        }
    };

    let mut out = report.render();
    let mut code = 0;
    if report.silent() > 0 {
        let _ = writeln!(out, "FAIL: the safety net let corruption through");
        code = 1;
    }
    if expect_detections && !report.all_classes_detected() {
        let _ = writeln!(
            out,
            "FAIL: --expect-detections set but some fault class was never caught"
        );
        code = 1;
    }
    Ok((out, code))
}

/// `serve ...` — blocks until SIGINT/SIGTERM or `POST /v1/shutdown`.
#[allow(clippy::too_many_arguments)]
pub fn serve(
    addr: String,
    workers: Option<usize>,
    queue: usize,
    cache_mb: usize,
    cycle_budget: Option<u64>,
    max_connections: usize,
    client_rate: f64,
    client_burst: f64,
    cache_dir: Option<String>,
) -> Result<(), CommandError> {
    let env = std::env::var("REGMUTEX_JOBS").ok();
    let sim_workers = workers
        .or_else(|| env.and_then(|v| v.trim().parse().ok()).filter(|&n| n > 0))
        .unwrap_or_else(default_jobs);
    regmutex_server::serve_until_shutdown(ServerConfig {
        addr,
        sim_workers,
        queue_capacity: queue,
        cache_budget: cache_mb.saturating_mul(1024 * 1024),
        cycle_budget,
        max_connections,
        client_rate,
        client_burst,
        cache_dir,
        ..ServerConfig::default()
    })
    .map_err(|e| CommandError(format!("serve: {e}")))
}

/// `coordinator ...` — run the Fig 7 sweep across a fleet of workers.
/// Returns `(sweep output, aggregated Prometheus metrics, exit code)`;
/// the metrics go to stderr so the sweep on stdout stays byte-comparable
/// to the local golden. Exit code 3 when any row is a labeled error row
/// (a give-up after exhausting retries — never a missing row);
/// [`CHECKPOINT_EXIT`] when a journaled run was interrupted.
#[allow(clippy::too_many_arguments)]
pub fn coordinator(
    workers: Vec<String>,
    seed: u64,
    threads: usize,
    max_attempts: u32,
    cycle_budget: Option<u64>,
    journal_dir: Option<&str>,
    resume: bool,
) -> Result<(String, String, i32), CommandError> {
    let mut coordinator = Coordinator::new(FleetConfig {
        workers,
        seed,
        dispatch_threads: threads,
        max_attempts,
        ..FleetConfig::default()
    })
    .map_err(CommandError)?;
    if let Some(dir) = journal_dir {
        signal::install();
        let dir = Path::new(dir);
        coordinator.set_tier(result_store(dir)?);
        // The campaign identity pins the job matrix (which jobs run), not
        // the throughput knobs — the determinism contract lets a resumed
        // run use a different worker list, seed, or thread count.
        let campaign = format!(
            "fig07 budget={}",
            cycle_budget.map_or_else(|| "-".to_string(), |b| b.to_string())
        );
        let journal = FleetJournal::open(dir, &campaign, resume).map_err(CommandError)?;
        // Restore journaled circuit-breaker state; execute() re-probes
        // before dispatching so a recovered worker is re-admitted.
        coordinator.quarantine_workers(journal.quarantined());
        coordinator.set_journal(Arc::new(journal));
        coordinator.set_cancel(Arc::new(signal::triggered));
    }
    let source = Fig07Source;
    let mut jobs = source.jobs();
    if cycle_budget.is_some() {
        for j in &mut jobs {
            j.cycle_budget = cycle_budget;
        }
    }
    let results = match coordinator.execute(&jobs) {
        Ok(results) => results,
        Err(e) if is_checkpoint(&e) => {
            let dir = journal_dir.unwrap_or_default();
            eprintln!("coordinator: {e}; resume with --journal {dir} --resume");
            return Ok((String::new(), coordinator.render_metrics(), CHECKPOINT_EXIT));
        }
        Err(e) => return Err(CommandError(e)),
    };
    let (out, code) = source.render(&jobs, &results);
    Ok((out, coordinator.render_metrics(), code))
}

/// `chaos-fleet ...` — the network-fault campaign. The second element of
/// the pair is the process exit code: 1 when any job was lost or any row
/// silently wrong.
pub fn chaos_fleet(
    seeds: u64,
    apps: Vec<String>,
    cycle_budget: Option<u64>,
    trigger_after: usize,
    sim_workers: usize,
) -> Result<(String, i32), CommandError> {
    let mut spec = FleetCampaignSpec {
        seeds: (1..=seeds).collect(),
        cycle_budget,
        trigger_after,
        sim_workers,
        ..FleetCampaignSpec::default()
    };
    if !apps.is_empty() {
        spec.app_sets = vec![apps];
    }
    let report = run_fleet_campaign(&spec).map_err(CommandError)?;
    Ok(report.render())
}

/// `loadgen --fleet ...` — drive the coordinator closed-loop.
pub fn fleet_loadgen(
    workers: Vec<String>,
    threads: usize,
    requests: usize,
    seed: u64,
    apps: Vec<String>,
    cycle_budget: Option<u64>,
) -> Result<String, CommandError> {
    let coordinator = Coordinator::new(FleetConfig {
        workers,
        seed,
        ..FleetConfig::default()
    })
    .map_err(CommandError)?;
    let report = run_fleet_loadgen(
        &coordinator,
        &FleetLoadgenConfig {
            threads,
            requests,
            seed,
            apps,
            cycle_budget,
        },
    )
    .map_err(CommandError)?;
    let mut out = report.render();
    out.push('\n');
    if !report.nothing_dropped() {
        return Err(CommandError(format!(
            "fleet loadgen: {} of {} requests got no verdict\n{out}",
            report.total - (report.ok + report.job_errors + report.gave_up),
            report.total
        )));
    }
    Ok(out)
}

/// `fuzz ...` — mass kernel fuzzing with the differential oracle.
///
/// Three modes: `--replay FILE` re-runs one artifact (exit 0 iff its
/// documented outcome reproduces); `--fleet` shards the campaign across
/// workers' `/v1/fuzz` endpoints; otherwise a local campaign. In every
/// mode exit code 1 means a divergence (or a replay mismatch).
#[allow(clippy::too_many_arguments)]
pub fn fuzz(
    seed: u64,
    iters: u64,
    duration_secs: Option<u64>,
    jobs: Option<usize>,
    cycle_budget: Option<u64>,
    max_divergences: u64,
    stats: Option<String>,
    replay: Option<String>,
    fault: Option<String>,
    no_minimize: bool,
    fleet: bool,
    workers: Vec<String>,
    journal_dir: Option<&str>,
    resume: bool,
) -> Result<(String, i32), CommandError> {
    let mut oracle = regmutex_fuzz::OracleConfig::default();
    if let Some(b) = cycle_budget {
        oracle.cycle_budget = b;
    }

    if let Some(path) = replay {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| CommandError(format!("read {path}: {e}")))?;
        let artifact = regmutex_fuzz::Artifact::parse(&text)
            .map_err(|e| CommandError(format!("{path}: {e}")))?;
        let runner = Runner::new(jobs.unwrap_or_else(default_jobs));
        return Ok(regmutex_fuzz::replay_artifact(&artifact, &runner, &oracle));
    }

    if fleet {
        let started = std::time::Instant::now();
        let cfg = regmutex_fleet::FuzzFanoutConfig {
            workers,
            seed,
            iters,
            cycle_budget: oracle.cycle_budget,
            minimize: !no_minimize,
            ..regmutex_fleet::FuzzFanoutConfig::default()
        };
        let report = regmutex_fleet::run_fuzz_fanout(&cfg).map_err(CommandError)?;
        if let Some(path) = stats {
            std::fs::write(&path, report.to_json(started.elapsed().as_millis()))
                .map_err(|e| CommandError(format!("write {path}: {e}")))?;
        }
        return Ok(report.render(&cfg.workers));
    }

    let planted = match fault {
        Some(spec) => Some(
            regmutex_fuzz::parse_fault(&spec).map_err(|e| CommandError(format!("--fault: {e}")))?,
        ),
        None => None,
    };
    let cfg = regmutex_fuzz::CampaignConfig {
        seed,
        iters,
        duration: duration_secs.map(std::time::Duration::from_secs),
        oracle,
        fault: planted,
        minimize: !no_minimize,
        max_divergences,
        ..regmutex_fuzz::CampaignConfig::default()
    };
    let mut runner = Runner::new(jobs.unwrap_or_else(default_jobs));
    let report = match journal_dir {
        None => regmutex_fuzz::run_campaign(&cfg, &runner),
        Some(dir) => {
            signal::install();
            let dir = Path::new(dir);
            runner.set_tier(result_store(dir)?);
            let meta = regmutex_fuzz::journal::meta_line(&cfg);
            let decode = regmutex_fuzz::journal::parse_kernel_record;
            let journal =
                Campaign::open(dir, &meta, resume, "fuzz", decode).map_err(CommandError)?;
            let cancel: &dyn Fn() -> bool = &signal::triggered;
            match regmutex_fuzz::run_campaign_durable(&cfg, &runner, Some(&journal), Some(cancel)) {
                regmutex_fuzz::FuzzRun::Complete(report) => report,
                regmutex_fuzz::FuzzRun::Checkpointed { completed, total } => {
                    let msg = checkpoint_hint("fuzz", dir, completed, total);
                    eprint!("{msg}");
                    return Ok((String::new(), CHECKPOINT_EXIT));
                }
            }
        }
    };
    if let Some(path) = stats {
        std::fs::write(&path, report.to_json())
            .map_err(|e| CommandError(format!("write {path}: {e}")))?;
    }
    Ok(report.render())
}

/// `loadgen ...`
#[allow(clippy::too_many_arguments)]
pub fn loadgen(
    addr: String,
    threads: usize,
    requests: usize,
    seed: u64,
    apps: Vec<String>,
    keep_alive: bool,
    pipeline: usize,
) -> Result<String, CommandError> {
    let report = regmutex_server::run_loadgen(&LoadgenConfig {
        addr,
        threads,
        requests,
        seed,
        apps,
        keep_alive,
        pipeline,
        ..LoadgenConfig::default()
    })
    .map_err(CommandError)?;
    let mut out = report.render();
    out.push('\n');
    if !report.nothing_dropped() {
        return Err(CommandError(format!(
            "loadgen: {} of {} requests got no response\n{out}",
            report.total - (report.ok + report.rejected + report.failed),
            report.total
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn list_mentions_all_16() {
        let out = list(false);
        assert_eq!(out.lines().count(), 17); // header + 16
        assert!(out.contains("BFS"));
        assert!(out.contains("TPACF"));
    }

    #[test]
    fn list_json_is_machine_readable() {
        let out = list(true);
        let parsed = regmutex_server::json::parse(out.trim()).expect("valid JSON");
        let arr = parsed.as_arr().expect("array");
        assert_eq!(arr.len(), 16);
        for w in arr {
            for field in [
                "name",
                "regs",
                "base_set",
                "threads_per_cta",
                "shmem_per_cta",
                "grid_ctas",
                "group",
            ] {
                assert!(w.get(field).is_some(), "missing {field}");
            }
        }
    }

    #[test]
    fn unknown_workload_reports_options() {
        let err = disasm("nope", false, false).unwrap_err();
        assert!(err.0.contains("available"));
    }

    #[test]
    fn disasm_transformed_contains_primitives() {
        let plain = disasm("BFS", false, false).unwrap();
        assert!(!plain.contains("acq.es"));
        let transformed = disasm("BFS", true, false).unwrap();
        assert!(transformed.contains("acq.es"));
        assert!(transformed.contains("rel.es"));
    }

    #[test]
    fn disasm_liveness_annotates() {
        let out = disasm("Gaussian", false, true).unwrap();
        assert!(out.contains("live]"));
    }

    #[test]
    fn run_reports_plan_and_cycles() {
        let out = run(
            "Gaussian",
            Technique::RegMutex,
            true,
            Some(30),
            None,
            None,
            None,
            false,
        )
        .unwrap();
        assert!(out.contains("plan"));
        assert!(out.contains("cycles"));
        assert!(out.contains("checksum"));
    }

    #[test]
    fn run_watchdog_flag_reaches_the_simulator() {
        // A 1-cycle watchdog must abort any real workload, and the error
        // must carry the workload/technique label.
        let err = run(
            "Gaussian",
            Technique::Baseline,
            true,
            Some(30),
            None,
            Some(1),
            None,
            false,
        )
        .unwrap_err();
        assert!(err.0.contains("Gaussian/baseline"), "{err}");
        assert!(err.0.contains("exceeded 1 cycles"), "{err}");
    }

    #[test]
    fn trace_emits_csv() {
        let out = trace("SAD", 100).unwrap();
        assert!(out.starts_with("# SAD"));
        assert!(out.lines().count() > 50);
    }

    #[test]
    fn compare_covers_all_techniques() {
        let out = compare("Gaussian", true, Some(2)).unwrap();
        for t in ["baseline", "regmutex", "regmutex-paired", "rfv", "owf"] {
            assert!(out.contains(t), "missing {t}");
        }
    }

    #[test]
    fn sweep_is_worker_count_independent() {
        let (serial, code) = sweep("BFS", Some(1), None, false).unwrap();
        let (parallel, _) = sweep("BFS", Some(4), None, false).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(code, 0);
        assert!(serial.contains("|Es|"));
    }

    #[test]
    fn coordinator_rejects_an_empty_fleet() {
        let err = coordinator(vec![], 1, 2, 3, None, None, false).unwrap_err();
        assert!(err.0.contains("fleet has no workers"), "{err}");
    }

    #[test]
    fn fleet_loadgen_rejects_unknown_apps_before_sending_traffic() {
        // The app filter is validated up front, so no worker is contacted
        // and the bogus address never matters.
        let err = fleet_loadgen(
            vec!["127.0.0.1:1".into()],
            1,
            1,
            1,
            vec!["nope".into()],
            None,
        )
        .unwrap_err();
        assert!(err.0.contains("no requested app"), "{err}");
    }

    #[test]
    fn fuzz_smoke_campaign_stats_and_replay() {
        // A tiny clean campaign, with the stats artifact on disk.
        let stats_path = std::env::temp_dir().join("regmutex_fuzz_cli_stats.json");
        let (out, code) = fuzz(
            0xfeed,
            12,
            None,
            Some(2),
            None,
            5,
            Some(stats_path.to_string_lossy().into_owned()),
            None,
            None,
            false,
            false,
            vec![],
            None,
            false,
        )
        .unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("verdict: CLEAN"), "{out}");
        let stats = std::fs::read_to_string(&stats_path).unwrap();
        assert!(stats.contains("\"kernels\":12"), "{stats}");
        let _ = std::fs::remove_file(&stats_path);

        // A planted fault must diverge (exit 1) and print an artifact.
        let (out, code) = fuzz(
            0xfa_017,
            60,
            None,
            Some(2),
            None,
            1,
            None,
            None,
            Some("stuck-srp-bit:severe:5:regmutex".into()),
            false,
            false,
            vec![],
            None,
            false,
        )
        .unwrap();
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("verdict: DIVERGENT"), "{out}");
        assert!(out.contains("# regmutex-fuzz artifact v1"), "{out}");

        // Extract the artifact from the report and replay it: exit 0.
        let artifact: String = out
            .lines()
            .skip_while(|l| !l.trim_start().starts_with("# regmutex-fuzz artifact"))
            .take_while(|l| !l.trim().is_empty())
            .map(|l| format!("{}\n", l.trim_start()))
            .collect();
        let artifact_path = std::env::temp_dir().join("regmutex_fuzz_cli_artifact.txt");
        std::fs::write(&artifact_path, &artifact).unwrap();
        let (out, code) = fuzz(
            0,
            1,
            None,
            Some(2),
            None,
            1,
            None,
            Some(artifact_path.to_string_lossy().into_owned()),
            None,
            false,
            false,
            vec![],
            None,
            false,
        )
        .unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("verdict: REPRODUCED"), "{out}");
        let _ = std::fs::remove_file(&artifact_path);

        // A malformed fault spec is a structured error.
        assert!(fuzz(
            1,
            1,
            None,
            Some(1),
            None,
            1,
            None,
            None,
            Some("nope".into()),
            false,
            false,
            vec![],
            None,
            false,
        )
        .is_err());
    }

    #[test]
    fn sweep_journal_roundtrip_is_byte_identical() {
        let dir =
            std::env::temp_dir().join(format!("rmx-cli-sweep-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_string_lossy().into_owned();

        let (golden, _) = sweep("BFS", Some(2), None, false).unwrap();
        let (journaled, code) = sweep("BFS", Some(2), Some(&dir_s), false).unwrap();
        assert_eq!(code, 0);
        assert_eq!(journaled, golden, "journaling must not change the output");
        assert!(dir.join("journal.log").is_file());
        assert!(dir.join("store").is_dir());

        // Resume after completion: every row replays from the durable
        // tier, at a different worker count, byte-identically.
        let (resumed, code) = sweep("BFS", Some(1), Some(&dir_s), true).unwrap();
        assert_eq!(code, 0);
        assert_eq!(resumed, golden);

        // A journal from a different campaign is refused.
        let err = sweep("SAD", Some(1), Some(&dir_s), true).unwrap_err();
        assert!(err.0.contains("refusing to resume"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_journal_written_by_an_earlier_build_resumes() {
        let dir = std::env::temp_dir().join(format!("rmx-cli-sweep-compat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_string_lossy().into_owned();
        // The exact on-disk vocabulary, as literals: the `sweep BFS` meta
        // line and the completions of its baseline and `|Es|=2` rows.
        let journaled = ["job-ok fp=9db3ed60262104d6", "job-ok fp=472f338bf235a5b0"];
        let mut j = regmutex_durable::Journal::create(&dir.join("journal.log")).unwrap();
        j.append("meta kind=sweep app=BFS");
        for rec in journaled {
            j.append(rec);
        }
        j.sync();
        drop(j);

        let (golden, _) = sweep("BFS", Some(1), None, false).unwrap();
        let (resumed, code) = sweep("BFS", Some(1), Some(&dir_s), true).unwrap();
        assert_eq!(code, 0);
        assert_eq!(resumed, golden);
        // The resume kept the journal and replayed both completions: each
        // is journaled once, and the other five rows were appended.
        let (_, replay) = regmutex_durable::Journal::open(&dir.join("journal.log")).unwrap();
        assert_eq!(replay.records[0], "meta kind=sweep app=BFS");
        let oks: Vec<&String> = replay.records[1..].iter().collect();
        assert_eq!(oks.len(), 7, "{oks:?}");
        assert_eq!(oks[..2], journaled);
        let unique: std::collections::HashSet<_> = oks.iter().collect();
        assert_eq!(unique.len(), 7, "a replayed completion was re-journaled");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn chaos_smoke_is_clean_and_exit_zero() {
        let (out, code) = chaos(
            &["BFS".into()],
            1,
            Technique::RegMutex,
            Some(4),
            None,
            None,
            false,
            None,
            false,
        )
        .unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("silent corruption: NONE"), "{out}");
        assert!(out.contains("chaos campaign"), "{out}");
    }
}
