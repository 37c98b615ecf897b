//! `fuzz-campaign`: a fixed-size differential fuzzing campaign as one
//! closed batch.
//!
//! `run_campaign` with runner jobs = 2, a fresh runner (so every lookup
//! misses), no journal and minimization on. Thousands of small generated
//! kernels make per-simulation fixed cost, compile and fingerprinting
//! visible. The seed draws the campaign seed, i.e. which kernels are
//! generated. Every kernel must pass the cross-technique oracle, and a
//! repeated pass must reproduce the first pass's report byte for byte.

use std::time::Instant;

use regmutex_bench::{JobSpec, ResultCache, Runner, DEFAULT_CACHE_BUDGET};
use regmutex_fuzz::oracle::{evaluate, specs_for};
use regmutex_fuzz::{generate, run_campaign, CampaignConfig, Outcome as Verdict};
use regmutex_isa::mix;
use regmutex_workloads::suite;

use crate::host::peak_rss_mb;
use crate::layers::{SimTotals, Traced};
use crate::outcome::{layer_percentile, passes, Ctx, Outcome};
use crate::spans::Profile;
use crate::stats::{median, us};

const JOBS: usize = 2;
/// Set-up samples per pass.
const SETUP_REPEATS: usize = 20;
/// Kernels per campaign.
pub const KERNELS: u64 = 2000;

pub fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        seed: mix(seed, 0xf022),
        iters: KERNELS,
        minimize: true,
        ..CampaignConfig::default()
    }
}

/// Σ simulated instructions of a finished campaign, read back from its
/// runner's cache (every technique run of every kernel is a cache entry).
fn sim_totals(cfg: &CampaignConfig, cache: &ResultCache) -> SimTotals {
    let mut t = SimTotals::default();
    for i in cfg.start..cfg.start + cfg.iters {
        let g = generate(mix(cfg.seed, i));
        for spec in specs_for(&g, &cfg.oracle) {
            if let Some(Ok(rep)) = cache.probe(spec.fingerprint()) {
                t.add(&rep.stats);
            }
        }
    }
    t
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    if ctx.trace {
        return run_traced(ctx, out);
    }
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut kernel_rates = Vec::new();
    let mut instr_rates = Vec::new();
    let mut first_report: Option<String> = None;
    let n = passes(ctx, 3, |_| {
        // Set-up is short, so each pass times it several times.
        let (cfg, runner) = (0..SETUP_REPEATS)
            .map(|_| {
                let t0 = Instant::now();
                let built = suite::all();
                let made = (config(ctx.seed), Runner::new(JOBS));
                setups.push(t0.elapsed().as_secs_f64());
                assert_eq!(built.len(), 16);
                made
            })
            .last()
            .expect("at least one set-up");
        let t = Instant::now();
        let report = run_campaign(&cfg, &runner);
        let wall = t.elapsed().as_secs_f64();
        out.attempted += report.processed;
        let bad = report.stats.divergences + (cfg.iters - report.processed);
        for d in report.divergences.iter().take(3) {
            out.errors
                .push(format!("kernel {}: {:?}", d.index, d.divergence));
        }
        out.failed += bad;
        let (text, _) = report.render();
        match &first_report {
            None => first_report = Some(text),
            Some(f) => out.check(*f == text, || {
                "campaign report differs between passes".into()
            }),
        }
        let totals = sim_totals(&cfg, runner.cache());
        walls.push(wall);
        kernel_rates.push(report.processed as f64 / wall);
        instr_rates.push(totals.instructions as f64 / 1e6 / wall);
    });
    out.line(format!(
        "fuzz-campaign: {KERNELS} kernels x 5 techniques per pass, {n} passes, runner jobs={JOBS}, minimize on"
    ));
    out.series("setup_s", "s", &setups);
    out.series("wall_s", "s", &walls);
    out.series("fuzz_kernels_per_s", "1/s", &kernel_rates);
    out.series("sim_minstr_per_s", "Minstr/s", &instr_rates);
    out.metric("setup_s", median(&setups));
    out.metric("wall_s", median(&walls));
    out.metric("peak_rss_mb", peak_rss_mb());
    out
}

/// What a call-by-call campaign concluded, in `CampaignStats` terms.
#[derive(Debug, Default, PartialEq)]
struct Verdicts {
    runs: u64,
    escalations: u64,
    divergences: u64,
    agreements: u64,
}

/// The campaign loop issued call by call: generate → the runner path for
/// each batch's 5 × kernels specs (built by `specs_for`) → the oracle per
/// kernel.
fn traced_campaign(cfg: &CampaignConfig, traced: &Traced, cache: &ResultCache) -> Verdicts {
    let tr = &traced.tracer;
    let mut v = Verdicts::default();
    let end = cfg.start + cfg.iters;
    let mut index = cfg.start;
    while index < end {
        let batch_end = end.min(index + cfg.batch as u64);
        let kernels: Vec<_> = (index..batch_end)
            .map(|i| {
                (
                    i,
                    tr.span("fuzz.generate", 0, i, |_| generate(mix(cfg.seed, i))),
                )
            })
            .collect();
        let specs: Vec<JobSpec> = tr.span("fuzz.specs", 0, index, |_| {
            kernels
                .iter()
                .flat_map(|(_, g)| specs_for(g, &cfg.oracle))
                .collect()
        });
        let results = traced.run_batch(cache, JOBS, &specs, 0);
        for (n, (i, g)) in kernels.iter().enumerate() {
            v.runs += 5;
            let verdict = tr.span("fuzz.oracle", 0, *i, |_| {
                evaluate(g, &results[n * 5..n * 5 + 5], &cfg.oracle, |tech| {
                    v.runs += 1;
                    let spec = specs_for(g, &cfg.oracle)
                        .into_iter()
                        .find(|s| s.technique == tech)
                        .expect("technique spec exists")
                        .with_cycle_budget(cfg.oracle.cycle_budget * cfg.oracle.escalate_factor);
                    traced.run_batch(cache, 1, &[spec], 0).remove(0)
                })
            });
            match verdict {
                Verdict::Agreement { escalations } => {
                    v.agreements += 1;
                    v.escalations += u64::from(escalations);
                }
                Verdict::Divergence(_) => v.divergences += 1,
            }
        }
        index = batch_end;
    }
    v
}

fn run_traced(ctx: &Ctx, mut out: Outcome) -> Outcome {
    let cfg = config(ctx.seed);
    // An untraced warm-up, then untraced and traced campaigns in pairs
    // until the time budget is spent; the per-layer figures come from the
    // last traced campaign, the overhead from the median walls.
    run_campaign(&cfg, &Runner::new(JOBS));
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut last = None;
    passes(ctx, 1, |_| {
        let t = Instant::now();
        let report = run_campaign(&cfg, &Runner::new(JOBS));
        untraced_walls.push(t.elapsed().as_secs_f64());
        out.attempted += report.processed;
        out.failed += report.stats.divergences + (cfg.iters - report.processed);

        let traced = Traced::default();
        let cache = ResultCache::new(DEFAULT_CACHE_BUDGET);
        let t = Instant::now();
        let v = traced_campaign(&cfg, &traced, &cache);
        traced_walls.push(t.elapsed().as_secs_f64());
        let s = &report.stats;
        let untraced = Verdicts {
            runs: s.runs,
            escalations: s.escalations,
            divergences: s.divergences,
            agreements: s.agreements,
        };
        out.check(v == untraced, || {
            format!("traced campaign {v:?} != untraced {untraced:?}")
        });
        last = Some((traced, cache, v));
    });
    let (traced, cache, v) = last.expect("at least one traced campaign");

    let spans = traced.tracer.take();
    crate::write_spans(ctx, &spans);
    let profile = Profile::of(&spans);
    out.line(format!(
        "fuzz-campaign traced pass: {KERNELS} kernels, {} spans",
        spans.len()
    ));
    out.line(profile.render());
    traced.emit(&mut out, &profile, &cache);
    out.line("layer fuzz");
    layer_percentile(
        &mut out,
        "fuzz.generate_us.p50",
        &profile.samples("fuzz.generate", us),
        50.0,
    );
    layer_percentile(
        &mut out,
        "fuzz.oracle_us.p50",
        &profile.samples("fuzz.oracle", us),
        50.0,
    );
    out.metric("fuzz.runs_per_kernel", v.runs as f64 / cfg.iters as f64);
    out.metric("fuzz.escalations", v.escalations as f64);
    out.metric("fuzz.divergences", v.divergences as f64);
    crate::trace_summary(&mut out, &untraced_walls, &traced_walls, &spans);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_draws_the_campaign() {
        assert_eq!(config(3).seed, config(3).seed);
        assert_ne!(config(3).seed, config(4).seed);
        assert_eq!(config(3).iters, KERNELS);
    }
}
