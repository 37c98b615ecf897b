//! `paper-matrix`: the paper's evaluation matrix as one closed batch.
//!
//! All 16 Table I apps × 5 techniques × {full, half RF} (less DWT2D on
//! the half RF, which cannot launch), plus the Fig 10/11
//! forced-`|Es|` sweep and the Fig 12 paired runs, submitted to one fresh
//! `Runner` (2 workers, cold cache) per pass. The seed only sets the
//! submission order. Every job's `SimStats` digest is checked against
//! `reference/paper_matrix_digests.txt`, and the Fig 7 / Fig 8 averages
//! against the checked-in goldens.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use regmutex::{
    cycle_increase_percent, cycle_reduction_percent, RunReport, Technique, ALL_TECHNIQUES,
};
use regmutex_bench::{CachedResult, JobSpec, MatrixJob, ResultCache, Runner, DEFAULT_CACHE_BUDGET};
use regmutex_sim::{occupancy, GpuConfig, KernelResources};
use regmutex_workloads::{suite, Workload};

use crate::host::peak_rss_mb;
use crate::layers::{SimTotals, Traced};
use crate::outcome::{passes, Ctx, Outcome};
use crate::spans::Profile;
use crate::stats::{median, ms, Rng};

/// Runner worker threads (the sizing host has 2 CPUs).
const JOBS: usize = 2;
/// Set-up samples per pass.
const SETUP_REPEATS: usize = 5;
/// The Fig 10/11 sweep values.
const ES_VALUES: [u16; 6] = [2, 4, 6, 8, 10, 12];
const REFERENCE: &str = include_str!("../reference/paper_matrix_digests.txt");

/// Whether one CTA of `w` fits an SM under the static allocation on the
/// full or half register file. DWT2D does not fit the half RF: its
/// static-allocation runs deadlock at cycle 0, so no workload submits the
/// (app, RF) pairs that cannot launch.
pub fn launchable(w: &Workload, half_rf: bool) -> bool {
    let cfg = if half_rf {
        GpuConfig::gtx480_half_rf()
    } else {
        GpuConfig::gtx480()
    };
    let k = &w.kernel;
    occupancy::theoretical(
        &cfg,
        KernelResources::new(k.regs_per_thread, k.shmem_per_cta, k.threads_per_cta),
    )
    .ctas
        > 0
}

/// The matrix in canonical order (before the seed permutes it).
pub fn matrix() -> Vec<MatrixJob> {
    let mut jobs = Vec::new();
    for w in suite::all() {
        for half_rf in [false, true] {
            if !launchable(&w, half_rf) {
                continue;
            }
            for t in ALL_TECHNIQUES {
                let mut j = MatrixJob::new(w.name, t);
                j.half_rf = half_rf;
                jobs.push(j);
            }
        }
    }
    for w in suite::occupancy_limited() {
        for es in ES_VALUES {
            let mut j = MatrixJob::new(w.name, Technique::RegMutex);
            j.force_es = Some(es);
            jobs.push(j);
        }
    }
    // Fig 12: (a) baseline / paired / RegMutex on the full RF, (b) the
    // full-RF reference and half-RF baseline / paired. All of them repeat
    // cells above, so they exercise the runner's in-batch dedup.
    for w in suite::occupancy_limited() {
        for t in [
            Technique::Baseline,
            Technique::RegMutexPaired,
            Technique::RegMutex,
        ] {
            jobs.push(MatrixJob::new(w.name, t));
        }
    }
    for w in suite::rf_insensitive() {
        jobs.push(MatrixJob::new(w.name, Technique::Baseline));
        for t in [Technique::Baseline, Technique::RegMutexPaired] {
            let mut j = MatrixJob::new(w.name, t);
            j.half_rf = true;
            jobs.push(j);
        }
    }
    jobs
}

/// The submission order of pass `pass`: each pass of a run draws its
/// own order from the seed, so a run's median covers several batch tails.
pub fn job_list(seed: u64, pass: u64) -> Vec<MatrixJob> {
    let mut jobs = matrix();
    Rng::new(seed, 0x9a9e_0000 + pass).shuffle(&mut jobs);
    jobs
}

/// Stable identity of a matrix cell.
pub fn key(j: &MatrixJob) -> String {
    format!(
        "{}/{}/{}/es{}",
        j.app,
        j.technique,
        if j.half_rf { "half" } else { "full" },
        j.force_es
            .map_or_else(|| "-".to_string(), |e| e.to_string())
    )
}

/// Digest of a result: FNV-1a over the stable `SimStats` JSON.
pub fn digest(r: &CachedResult) -> String {
    match r {
        Ok(rep) => format!(
            "{:016x}",
            regmutex_durable::fnv1a(rep.stats.to_json().as_bytes())
        ),
        Err(e) => format!("error:{e}"),
    }
}

fn reference() -> BTreeMap<&'static str, &'static str> {
    REFERENCE
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| l.split_once(' '))
        .collect()
}

/// Render the reference file for the current model (used to bless it).
pub fn render_reference() -> String {
    let jobs = matrix();
    let specs: Vec<JobSpec> = jobs
        .iter()
        .map(|j| j.to_spec().expect("matrix job"))
        .collect();
    let results = Runner::new(JOBS).run_all(&specs);
    let rows: BTreeMap<String, String> = jobs
        .iter()
        .zip(&results)
        .map(|(j, r)| (key(j), digest(r)))
        .collect();
    let mut out = String::from(
        "# paper-matrix SimStats digests: FNV-1a of SimStats::to_json, one line per matrix cell\n",
    );
    for (k, d) in rows {
        out.push_str(&format!("{k} {d}\n"));
    }
    out
}

/// The two simulated headline numbers: Fig 7's mean cycle reduction and
/// Fig 8's mean half-RF cycle increase with RegMutex.
pub fn simulated_averages(jobs: &[MatrixJob], results: &[CachedResult]) -> Option<(f64, f64)> {
    let find = |app: &str, t: Technique, half: bool| -> Option<&RunReport> {
        jobs.iter()
            .zip(results)
            .find(|(j, _)| {
                j.app == app && j.technique == t && j.half_rf == half && j.force_es.is_none()
            })
            .and_then(|(_, r)| r.as_ref().ok())
    };
    let mut red = Vec::new();
    for w in suite::occupancy_limited() {
        red.push(cycle_reduction_percent(
            find(w.name, Technique::Baseline, false)?,
            find(w.name, Technique::RegMutex, false)?,
        ));
    }
    let mut inc = Vec::new();
    for w in suite::rf_insensitive() {
        inc.push(cycle_increase_percent(
            find(w.name, Technique::Baseline, false)?,
            find(w.name, Technique::RegMutex, true)?,
        ));
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    Some((mean(&red), mean(&inc)))
}

/// The averages the checked-in goldens print, as `"15.0%"`-style strings.
fn golden_averages(ctx: &Ctx) -> Result<(String, String), String> {
    let read = |name: &str| {
        std::fs::read_to_string(ctx.root.join("results").join(name))
            .map_err(|e| format!("read results/{name}: {e}"))
    };
    let fig07 = read("fig07_occupancy_boost.txt")?;
    let fig08 = read("fig08_half_rf.txt")?;
    let red = fig07
        .lines()
        .find_map(|l| l.strip_prefix("average reduction: "))
        .ok_or("fig07 golden has no average line")?;
    let inc = fig08
        .lines()
        .find_map(|l| l.strip_prefix("average increase: "))
        .and_then(|l| l.split(", ").nth(1))
        .and_then(|l| l.strip_suffix(" with RegMutex"))
        .ok_or("fig08 golden has no average line")?;
    Ok((red.trim().to_string(), inc.trim().to_string()))
}

struct Setup {
    jobs: Vec<MatrixJob>,
    specs: Vec<JobSpec>,
    suite_build: Duration,
    took: Duration,
}

fn setup(seed: u64, pass: u64) -> Setup {
    let t0 = Instant::now();
    let built = suite::all();
    let suite_build = t0.elapsed();
    assert_eq!(built.len(), 16);
    let jobs = job_list(seed, pass);
    let specs: Vec<JobSpec> = jobs
        .iter()
        .map(|j| j.to_spec().expect("matrix job"))
        .collect();
    Setup {
        jobs,
        specs,
        suite_build,
        took: t0.elapsed(),
    }
}

/// Check one pass's results; returns the simulated totals.
fn check(
    out: &mut Outcome,
    s: &Setup,
    results: &[CachedResult],
    goldens: &(String, String),
) -> SimTotals {
    let reference = reference();
    for (j, r) in s.jobs.iter().zip(results) {
        let k = key(j);
        let got = digest(r);
        out.check(reference.get(k.as_str()) == Some(&got.as_str()), || {
            format!(
                "{k}: digest {got} != reference {:?}",
                reference.get(k.as_str())
            )
        });
    }
    let (red, inc) = simulated_averages(&s.jobs, results).unwrap_or((f64::NAN, f64::NAN));
    out.check(format!("{red:.1}%") == goldens.0, || {
        format!("Fig 7 mean reduction {red:.3}% != golden {}", goldens.0)
    });
    out.check(format!("{inc:.1}%") == goldens.1, || {
        format!("Fig 8 mean increase {inc:.3}% != golden {}", goldens.1)
    });
    SimTotals::of_unique(s.specs.iter().map(JobSpec::fingerprint).zip(results))
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let goldens = match golden_averages(ctx) {
        Ok(g) => g,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };
    if ctx.trace {
        return run_traced(ctx, &goldens, out);
    }
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut rates = Vec::new();
    let mut last = None;
    let n = passes(ctx, 3, |pass| {
        // Set-up is short, so each pass times it several times.
        let s = (0..SETUP_REPEATS)
            .map(|_| {
                let s = setup(ctx.seed, pass as u64);
                setups.push(s.took.as_secs_f64());
                s
            })
            .last()
            .expect("at least one set-up");
        let runner = Runner::new(JOBS);
        let t = Instant::now();
        let results = runner.run_all(&s.specs);
        let wall = t.elapsed();
        let totals = check(&mut out, &s, &results, &goldens);
        walls.push(wall.as_secs_f64());
        rates.push(totals.instructions as f64 / 1e6 / wall.as_secs_f64());
        last = Some((s, results));
    });
    let (s, last_results) = last.expect("at least one pass");
    let (red, inc) = simulated_averages(&s.jobs, &last_results).unwrap_or((f64::NAN, f64::NAN));
    out.line(format!(
        "paper-matrix: {} jobs ({} unique) per pass, {n} passes, runner jobs={JOBS}",
        s.specs.len(),
        SimTotals::of_unique(s.specs.iter().map(JobSpec::fingerprint).zip(&last_results)).runs
    ));
    out.series("setup_s", "s", &setups);
    out.series("wall_s", "s", &walls);
    out.series("sim_minstr_per_s", "Minstr/s", &rates);
    out.line(format!(
        "regmutex_cycle_reduction_pct {red:.4} % (paper: 13%, error {:+.1} points; golden {})",
        red - 13.0,
        goldens.0
    ));
    out.line(format!(
        "half_rf_cycle_increase_pct   {inc:.4} % (paper: 9%, error {:+.1} points; golden {})",
        inc - 9.0,
        goldens.1
    ));
    out.line("model validated in shape only: there is no GPU reference measurement");
    out.metric("setup_s", median(&setups));
    out.metric("wall_s", median(&walls));
    out.metric("peak_rss_mb", peak_rss_mb());
    out
}

fn run_traced(ctx: &Ctx, goldens: &(String, String), mut out: Outcome) -> Outcome {
    let s = setup(ctx.seed, 0);
    // An untraced warm-up, then untraced and traced passes in pairs until
    // the time budget is spent; the per-layer figures come from the last
    // traced pass, the overhead from the median walls.
    Runner::new(JOBS).run_all(&s.specs);
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    passes(ctx, 1, |_| {
        let t = Instant::now();
        let untraced = Runner::new(JOBS).run_all(&s.specs);
        untraced_walls.push(t.elapsed().as_secs_f64());
        check(&mut out, &s, &untraced, goldens);

        let traced = Traced::default();
        let cache = ResultCache::new(DEFAULT_CACHE_BUDGET);
        let t = Instant::now();
        let results = traced.run_batch(&cache, JOBS, &s.specs, 0);
        traced_walls.push(t.elapsed().as_secs_f64());
        check(&mut out, &s, &results, goldens);
        for (a, b) in results.iter().zip(&untraced) {
            out.check(digest(a) == digest(b), || {
                "traced result differs from untraced".into()
            });
        }
        last = Some((traced, cache, results));
    });
    let (traced, cache, results) = last.expect("at least one traced pass");
    // The simulated headline numbers (checked against the goldens above).
    let (red, inc) = simulated_averages(&s.jobs, &results).unwrap_or((f64::NAN, f64::NAN));
    out.line(format!(
        "model: Fig 7 mean cycle reduction {red:.4} % (paper 13%), \
         Fig 8 half-RF mean increase {inc:.4} % (paper 9%)"
    ));
    out.metric("model.regmutex_cycle_reduction_pct", red);
    out.metric("model.half_rf_cycle_increase_pct", inc);
    let spans = traced.tracer.take();
    crate::write_spans(ctx, &spans);
    let profile = Profile::of(&spans);
    out.line(format!("paper-matrix traced pass: {} spans", spans.len()));
    out.line(profile.render());
    out.metric("workloads.suite_build_ms", ms(s.suite_build));
    traced.emit(&mut out, &profile, &cache);
    crate::trace_summary(&mut out, &untraced_walls, &traced_walls, &spans);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_permutes_the_matrix_and_only_that() {
        let a = job_list(1, 0);
        assert_eq!(a, job_list(1, 0));
        assert_ne!(a, job_list(1, 1));
        let b = job_list(2, 0);
        assert_ne!(a, b);
        let sorted = |mut v: Vec<MatrixJob>| {
            v.sort_by_key(key);
            v
        };
        assert_eq!(sorted(a.clone()), sorted(b));
        // 31 launchable (app, RF) pairs x 5 techniques, 48 forced-|Es|
        // cells and 48 Fig 12 repeats.
        assert_eq!(a.len(), 31 * 5 + 48 + 48);
        let reference = reference();
        assert!(a.iter().all(|j| reference.contains_key(key(j).as_str())));
    }
}
