//! The fuzzing campaign engine: generate → differential oracle →
//! minimize, in deterministic batches.
//!
//! Kernel `i` of a campaign is derived purely from `mix(seed, i)`, and
//! results are evaluated in index order, so a campaign's rendered report
//! is byte-identical at any `--jobs` count and across execution
//! substrates — sharding a seed range over fleet workers and concatenating
//! the shard reports reproduces the local run exactly.
//! (Wall-clock numbers live only in the JSON stats artifact, never in the
//! rendered report.)

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use regmutex_bench::{JobSpec, Runner};
use regmutex_durable::Campaign;
use regmutex_isa::mix;

use crate::artifact::{Artifact, Expectation};
use crate::gen::{generate, Generated};
use crate::journal::{encode_record, KernelRecord};
use crate::minimize::minimize;
use crate::oracle::{
    run_faulted, run_faulted_pair, run_local, run_pair, Divergence, OracleConfig, Outcome,
    PlantedFault,
};
use crate::trace::trace_to_text;

/// Campaign tunables.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Campaign seed; kernel `i` uses generator seed `mix(seed, i)`.
    pub seed: u64,
    /// First kernel index (fleet shards cover disjoint `start..start+iters`
    /// ranges of one campaign).
    pub start: u64,
    /// Kernel count (iteration budget).
    pub iters: u64,
    /// Optional wall-clock budget, checked at batch boundaries. A
    /// duration-capped campaign trades the byte-for-byte reproducibility
    /// of a pure iteration budget for boundedness.
    pub duration: Option<Duration>,
    /// Oracle settings (cycle budget, escalation).
    pub oracle: OracleConfig,
    /// Planted manager fault (oracle self-test mode); forces session-based
    /// execution so the fault never pollutes the shared result cache.
    pub fault: Option<PlantedFault>,
    /// Minimize each divergence to an artifact.
    pub minimize: bool,
    /// Predicate-evaluation budget per minimization.
    pub minimize_tests: u64,
    /// Stop scanning after this many divergences.
    pub max_divergences: u64,
    /// Kernels per runner batch.
    pub batch: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            seed: 0x5eed_f022,
            start: 0,
            iters: 1000,
            duration: None,
            oracle: OracleConfig::default(),
            fault: None,
            minimize: true,
            minimize_tests: 12000,
            max_divergences: 5,
            batch: 32,
        }
    }
}

/// One divergence the campaign found (and minimized).
#[derive(Debug, Clone)]
pub struct FoundDivergence {
    /// Campaign index of the offending kernel.
    pub index: u64,
    /// Its generator seed (`mix(campaign_seed, index)`).
    pub seed: u64,
    /// What the oracle saw.
    pub divergence: Divergence,
    /// The minimized, replayable artifact.
    pub artifact: Artifact,
    /// Static instructions of the minimized kernel.
    pub instructions: usize,
    /// Accepted shrink steps.
    pub minimize_steps: u64,
    /// Predicate evaluations spent.
    pub minimize_tests: u64,
}

/// Aggregate campaign counters.
#[derive(Debug, Clone, Default)]
pub struct CampaignStats {
    /// Kernels generated and evaluated.
    pub kernels: u64,
    /// Simulations submitted (technique runs + escalations + minimizer
    /// probes).
    pub runs: u64,
    /// Kernels on which every invariant held.
    pub agreements: u64,
    /// Divergences found.
    pub divergences: u64,
    /// Watchdog escalations that resolved (blessed budget asymmetries).
    pub escalations: u64,
    /// Accepted shrink steps across all minimizations.
    pub minimize_steps: u64,
    /// Predicate evaluations across all minimizations.
    pub minimize_tests: u64,
    /// Result-cache hits/misses observed on the runner (timing-dependent
    /// across worker counts; reported in JSON only).
    pub cache_hits: u64,
    /// See [`CampaignStats::cache_hits`].
    pub cache_misses: u64,
    /// Wall clock (JSON only).
    pub elapsed: Duration,
}

/// A finished campaign.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// The configuration that ran (determinism contract: `seed`, `start`,
    /// `iters` fully determine the rendered report).
    pub seed: u64,
    /// First index.
    pub start: u64,
    /// Kernels actually processed (< `iters` only under a duration budget
    /// or the divergence cap).
    pub processed: u64,
    /// Counters.
    pub stats: CampaignStats,
    /// Divergences, in index order.
    pub divergences: Vec<FoundDivergence>,
}

/// How a durable campaign ended.
pub enum FuzzRun {
    /// The full index range evaluated (or a duration/divergence cap hit,
    /// exactly as an uninterrupted run would).
    Complete(FuzzReport),
    /// The cancel check fired first: progress is journaled, the rest of
    /// the range is waiting for `--resume`.
    Checkpointed {
        /// Kernels evaluated so far (including replayed ones).
        completed: u64,
        /// Total iteration budget.
        total: u64,
    },
}

/// Run a campaign on `runner`. Fault-free campaigns batch all techniques
/// of `cfg.batch` kernels into single [`Runner::run_all`] calls; planted
/// -fault campaigns run kernel-at-a-time through fresh sessions.
pub fn run_campaign(cfg: &CampaignConfig, runner: &Runner) -> FuzzReport {
    match run_campaign_durable(cfg, runner, None, None) {
        FuzzRun::Complete(report) => report,
        FuzzRun::Checkpointed { .. } => unreachable!("no cancel check installed"),
    }
}

/// [`run_campaign`] with durability hooks: every evaluated kernel is
/// journaled as it lands, kernels replayed from the journal are folded
/// into the report without re-simulating, and `cancel` is polled at
/// batch boundaries for the graceful checkpoint-and-exit path. Because
/// kernel `i` depends only on `mix(seed, i)` and `runs` is attributed
/// per kernel at evaluation time, a resumed campaign renders
/// byte-identically to an uninterrupted one regardless of where the
/// interruption fell relative to batch boundaries.
pub fn run_campaign_durable(
    cfg: &CampaignConfig,
    runner: &Runner,
    journal: Option<&Campaign<u64, KernelRecord>>,
    cancel: Option<&dyn Fn() -> bool>,
) -> FuzzRun {
    let started = Instant::now();
    let hits0 = runner.cache_hits();
    let misses0 = runner.cache_misses();
    let mut stats = CampaignStats::default();
    let mut divergences = Vec::new();
    let mut index = cfg.start;
    let end = cfg.start.saturating_add(cfg.iters);
    let mut capped = false;

    // Replay: fold the journal's contiguous prefix of completed kernels.
    // A gap (missing or undecodable record) stops the fold; everything
    // past it re-runs, which is safe because evaluation is deterministic.
    if let Some(j) = journal {
        while index < end && !capped {
            let Some(rec) = j.replayed(&index) else { break };
            stats.kernels += 1;
            match rec {
                KernelRecord::Agreement { runs, escalations } => {
                    stats.runs += runs;
                    stats.agreements += 1;
                    stats.escalations += u64::from(*escalations);
                }
                KernelRecord::Divergence { runs, found } => {
                    stats.runs += runs;
                    stats.divergences += 1;
                    stats.minimize_steps += found.minimize_steps;
                    stats.minimize_tests += found.minimize_tests;
                    divergences.push(found.clone());
                    capped = stats.divergences >= cfg.max_divergences;
                }
            }
            index += 1;
        }
    }

    'outer: while index < end && !capped {
        if let Some(d) = cfg.duration {
            if started.elapsed() >= d {
                break;
            }
        }
        if cancel.is_some_and(|c| c()) {
            if let Some(j) = journal {
                j.sync();
            }
            return FuzzRun::Checkpointed {
                completed: index - cfg.start,
                total: cfg.iters,
            };
        }
        let batch_end = end.min(index + cfg.batch as u64);
        let kernels: Vec<(u64, Generated)> = (index..batch_end)
            .map(|i| (i, generate(mix(cfg.seed, i))))
            .collect();

        // One big submission: the runner parallelizes across kernels
        // *and* techniques; results come back in submission order.
        // (Planted-fault campaigns go kernel-at-a-time through fresh
        // sessions instead, so the fault never pollutes the cache.)
        let prefetched: Option<Vec<_>> = if cfg.fault.is_none() {
            let specs: Vec<JobSpec> = kernels
                .iter()
                .flat_map(|(_, g)| crate::oracle::specs_for(g, &cfg.oracle))
                .collect();
            Some(runner.run_all(&specs))
        } else {
            None
        };

        for (n, (i, g)) in kernels.into_iter().enumerate() {
            let runs_before = stats.runs;
            stats.runs += 5;
            let outcome = match (&cfg.fault, &prefetched) {
                (Some(fault), _) => run_faulted(&g, &cfg.oracle, fault),
                (None, Some(results)) => {
                    crate::oracle::evaluate(&g, &results[n * 5..n * 5 + 5], &cfg.oracle, |t| {
                        stats.runs += 1;
                        let spec = crate::oracle::specs_for(&g, &cfg.oracle)
                            .into_iter()
                            .find(|s| s.technique == t)
                            .expect("technique spec exists")
                            .with_cycle_budget(
                                cfg.oracle.cycle_budget * cfg.oracle.escalate_factor,
                            );
                        runner.run_all(&[spec]).remove(0)
                    })
                }
                (None, None) => unreachable!("fault-free batches are prefetched"),
            };
            stats.kernels += 1;
            match outcome {
                Outcome::Agreement { escalations } => {
                    stats.agreements += 1;
                    stats.escalations += u64::from(escalations);
                    if let Some(j) = journal {
                        let rec = KernelRecord::Agreement {
                            runs: stats.runs - runs_before,
                            escalations,
                        };
                        j.append(&i, &encode_record(i, &rec));
                    }
                }
                Outcome::Divergence(d) => {
                    stats.divergences += 1;
                    let found = shrink_divergence(cfg, runner, i, g, d, &mut stats);
                    if let Some(j) = journal {
                        let rec = KernelRecord::Divergence {
                            runs: stats.runs - runs_before,
                            found: found.clone(),
                        };
                        j.append(&i, &encode_record(i, &rec));
                    }
                    divergences.push(found);
                    if stats.divergences >= cfg.max_divergences {
                        index = i + 1;
                        break 'outer;
                    }
                }
            }
        }
        index = batch_end;
    }

    if let Some(j) = journal {
        j.sync();
    }
    stats.cache_hits = runner.cache_hits() - hits0;
    stats.cache_misses = runner.cache_misses() - misses0;
    stats.elapsed = started.elapsed();
    FuzzRun::Complete(FuzzReport {
        seed: cfg.seed,
        start: cfg.start,
        processed: index - cfg.start,
        stats,
        divergences,
    })
}

/// Minimize one divergence (or package it unminimized) into an artifact.
fn shrink_divergence(
    cfg: &CampaignConfig,
    runner: &Runner,
    index: u64,
    g: Generated,
    d: Divergence,
    stats: &mut CampaignStats,
) -> FoundDivergence {
    let seed = g.seed;
    let (technique, kind) = (d.technique, d.kind);
    let same = |o: &Outcome| match o {
        Outcome::Divergence(x) => x.technique == technique && x.kind == kind,
        Outcome::Agreement { .. } => false,
    };
    let (final_g, steps, tests) = if cfg.minimize {
        let min = minimize(seed, &g.trace, cfg.minimize_tests, |cand| {
            let probe = match &cfg.fault {
                Some(f) => run_faulted_pair(cand, &cfg.oracle, f, technique),
                None => run_pair(cand, runner, &cfg.oracle, technique),
            };
            same(&probe)
        });
        stats.runs += 2 * min.tests;
        (min.generated, min.steps, min.tests)
    } else {
        (g, 0, 0)
    };
    stats.minimize_steps += steps;
    stats.minimize_tests += tests;
    let instructions = final_g.kernel.len();
    let artifact = Artifact {
        seed,
        trace: final_g.trace,
        fault: cfg.fault,
        expect: Expectation::Divergence(technique, kind),
        note: Some(format!(
            "minimized from campaign seed {:#x} index {index}",
            cfg.seed
        )),
    };
    FoundDivergence {
        index,
        seed,
        divergence: d,
        artifact,
        instructions,
        minimize_steps: steps,
        minimize_tests: tests,
    }
}

impl FuzzReport {
    /// Render the deterministic campaign report and its exit code (0 =
    /// clean, 1 = divergences found).
    pub fn render(&self) -> (String, i32) {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "fuzz campaign: seed {:#018x} start {} iters {}",
            self.seed, self.start, self.processed
        );
        let _ = writeln!(out, "  kernels      {}", self.stats.kernels);
        let _ = writeln!(out, "  runs         {}", self.stats.runs);
        let _ = writeln!(out, "  agreements   {}", self.stats.agreements);
        let _ = writeln!(out, "  divergences  {}", self.stats.divergences);
        let _ = writeln!(out, "  escalations  {}", self.stats.escalations);
        for (n, f) in self.divergences.iter().enumerate() {
            let _ = writeln!(
                out,
                "\ndivergence {}: index {} kernel {:#018x} technique {} kind {}",
                n + 1,
                f.index,
                f.seed,
                f.divergence.technique,
                f.divergence.kind.name()
            );
            let _ = writeln!(out, "  detail: {}", f.divergence.detail);
            let _ = writeln!(
                out,
                "  minimized: {} instructions, {} trace entries ({} steps, {} tests)",
                f.instructions,
                f.artifact.trace.len(),
                f.minimize_steps,
                f.minimize_tests
            );
            let _ = writeln!(out, "  trace: {}", trace_to_text(&f.artifact.trace));
            for line in f.artifact.to_text().lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
        let clean = self.divergences.is_empty();
        let _ = writeln!(
            out,
            "\nverdict: {}",
            if clean { "CLEAN" } else { "DIVERGENT" }
        );
        (out, i32::from(!clean))
    }

    /// JSON stats artifact (the `--stats` output; the only place
    /// wall-clock numbers appear).
    pub fn to_json(&self) -> String {
        let s = &self.stats;
        let secs = s.elapsed.as_secs_f64();
        let kps = if secs > 0.0 {
            s.kernels as f64 / secs
        } else {
            0.0
        };
        let artifacts: Vec<String> = self
            .divergences
            .iter()
            .map(|d| json_escape(&d.artifact.to_text()))
            .collect();
        format!(
            concat!(
                "{{\"seed\":{},\"start\":{},\"processed\":{},",
                "\"kernels\":{},\"runs\":{},\"agreements\":{},\"divergences\":{},",
                "\"escalations\":{},\"minimize_steps\":{},\"minimize_tests\":{},",
                "\"cache_hits\":{},\"cache_misses\":{},",
                "\"elapsed_ms\":{},\"kernels_per_sec\":{:.2},",
                "\"artifacts\":[{}]}}"
            ),
            self.seed,
            self.start,
            self.processed,
            s.kernels,
            s.runs,
            s.agreements,
            s.divergences,
            s.escalations,
            s.minimize_steps,
            s.minimize_tests,
            s.cache_hits,
            s.cache_misses,
            s.elapsed.as_millis(),
            kps,
            artifacts
                .iter()
                .map(|a| format!("\"{a}\""))
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

/// Minimal JSON string escaping (the artifact text is ASCII).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Replay one artifact: regenerate, re-run the oracle (with the planted
/// fault if present), and report whether the documented outcome
/// reproduced. Returns the rendered text and an exit code (0 = outcome
/// matches the artifact's `expect`, 1 = it does not).
pub fn replay_artifact(a: &Artifact, runner: &Runner, oracle: &OracleConfig) -> (String, i32) {
    let g = crate::gen::replay(a.seed, &a.trace);
    let outcome = match &a.fault {
        Some(f) => run_faulted(&g, oracle, f),
        None => run_local(&g, runner, oracle),
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "replay: seed {:#018x} trace {} entries -> kernel {} ({} instructions)",
        a.seed,
        a.trace.len(),
        g.kernel.name,
        g.kernel.len()
    );
    if let Some(f) = &a.fault {
        let _ = writeln!(
            out,
            "planted fault: {}:{} seed {} on {}",
            f.class, f.severity, f.seed, f.technique
        );
    }
    match &outcome {
        Outcome::Agreement { escalations } => {
            let _ = writeln!(out, "outcome: agreement (escalations {escalations})");
        }
        Outcome::Divergence(d) => {
            let _ = writeln!(
                out,
                "outcome: divergence technique {} kind {}\n  detail: {}",
                d.technique,
                d.kind.name(),
                d.detail
            );
        }
    }
    let ok = a.matches(&outcome);
    let _ = writeln!(
        out,
        "expected: {}\nverdict: {}",
        match a.expect {
            Expectation::Agreement => "agreement".to_string(),
            Expectation::Divergence(t, k) => format!("divergence:{t}:{}", k.name()),
        },
        if ok { "REPRODUCED" } else { "MISMATCH" }
    );
    (out, i32::from(!ok))
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex::Technique;
    use regmutex_sim::{FaultClass, Severity};

    fn quick_cfg(iters: u64) -> CampaignConfig {
        CampaignConfig {
            seed: 0xfeed,
            iters,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn small_campaign_is_clean_and_deterministic() {
        let runner = Runner::new(2);
        let report = run_campaign(&quick_cfg(40), &runner);
        let (text, code) = report.render();
        assert_eq!(code, 0, "{text}");
        assert_eq!(report.stats.kernels, 40);
        assert_eq!(report.stats.agreements, 40);
        // Same seed, different worker count: byte-identical render.
        let runner2 = Runner::new(1);
        let report2 = run_campaign(&quick_cfg(40), &runner2);
        assert_eq!(text, report2.render().0);
    }

    #[test]
    fn shard_union_equals_whole_campaign() {
        // Two shards of one campaign, concatenated, must match the whole
        // run: this is the fleet fan-out's correctness argument.
        let runner = Runner::new(2);
        let whole = run_campaign(&quick_cfg(30), &runner);
        let mut lo = quick_cfg(15);
        lo.start = 0;
        let mut hi = quick_cfg(15);
        hi.start = 15;
        let a = run_campaign(&lo, &runner);
        let b = run_campaign(&hi, &runner);
        assert_eq!(
            whole.stats.agreements,
            a.stats.agreements + b.stats.agreements
        );
        assert_eq!(whole.stats.kernels, a.stats.kernels + b.stats.kernels);
    }

    #[test]
    fn planted_fault_campaign_finds_and_minimizes_a_divergence() {
        // The oracle self-test: a severe stuck-SRP-bit fault under the
        // RegMutex manager must surface as a divergence that minimizes to
        // a small, stable, replayable artifact.
        let runner = Runner::new(2);
        let cfg = CampaignConfig {
            seed: 0xfa_017,
            iters: 60,
            fault: Some(PlantedFault {
                class: FaultClass::StuckSrpBit,
                severity: Severity::Severe,
                seed: 5,
                technique: Technique::RegMutex,
            }),
            max_divergences: 1,
            ..CampaignConfig::default()
        };
        let report = run_campaign(&cfg, &runner);
        let (text, code) = report.render();
        assert_eq!(code, 1, "planted fault must be caught:\n{text}");
        let found = &report.divergences[0];
        assert!(
            found.instructions <= 25,
            "artifact must minimize to <= 25 instructions, got {}:\n{text}",
            found.instructions
        );
        // The artifact replays to the same outcome, twice.
        let (r1, c1) = replay_artifact(&found.artifact, &runner, &cfg.oracle);
        let (r2, c2) = replay_artifact(&found.artifact, &runner, &cfg.oracle);
        assert_eq!(c1, 0, "{r1}");
        assert_eq!(c2, 0);
        assert_eq!(r1, r2);
    }

    fn open(
        dir: &std::path::Path,
        cfg: &CampaignConfig,
        resume: bool,
    ) -> Result<Campaign<u64, KernelRecord>, String> {
        let meta = crate::journal::meta_line(cfg);
        Campaign::open(
            dir,
            &meta,
            resume,
            "fuzz",
            crate::journal::parse_kernel_record,
        )
    }

    fn journal_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "rmx-fuzzjournal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// A planted-fault campaign small enough for tests but rich enough
    /// to exercise both record kinds (agreements and divergences).
    fn faulted_cfg() -> CampaignConfig {
        CampaignConfig {
            seed: 0xfa_017,
            iters: 24,
            fault: Some(PlantedFault {
                class: FaultClass::StuckSrpBit,
                severity: Severity::Severe,
                seed: 5,
                technique: Technique::RegMutex,
            }),
            minimize_tests: 300,
            max_divergences: 3,
            batch: 4,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn interrupted_campaign_resumes_to_identical_report() {
        let runner = Runner::new(2);
        let cfg = faulted_cfg();
        let (golden, golden_code) = run_campaign(&cfg, &runner).render();

        let dir = journal_dir("resume");
        let journal = open(&dir, &cfg, false).unwrap();
        let polls = std::sync::atomic::AtomicU32::new(0);
        let cancel = || polls.fetch_add(1, std::sync::atomic::Ordering::Relaxed) >= 2;
        let run = run_campaign_durable(&cfg, &runner, Some(&journal), Some(&cancel));
        let FuzzRun::Checkpointed { completed, total } = run else {
            panic!("campaign must checkpoint on cancel");
        };
        assert!(completed > 0 && completed < total, "{completed}/{total}");
        drop(journal);

        let resumed = open(&dir, &cfg, true).unwrap();
        assert_eq!(resumed.completed() as u64, completed);
        let run = run_campaign_durable(&cfg, &runner, Some(&resumed), None);
        let FuzzRun::Complete(report) = run else {
            panic!("uncancelled resume must complete");
        };
        let (text, code) = report.render();
        assert_eq!(code, golden_code);
        assert_eq!(text, golden, "resumed render must be byte-identical");
    }

    #[test]
    fn resume_with_different_campaign_is_refused() {
        let cfg = quick_cfg(8);
        let dir = journal_dir("mismatch");
        drop(open(&dir, &cfg, false).unwrap());
        let mut other = cfg.clone();
        other.seed ^= 1;
        let err = open(&dir, &other, true).unwrap_err();
        assert!(err.contains("refusing to resume"), "{err}");
        assert!(open(&dir, &cfg, true).is_ok());
    }

    #[test]
    fn journal_gap_falls_back_to_rerun() {
        // A record that is not part of the contiguous prefix must be
        // ignored (the fold stops at the first gap), so a journal whose
        // early records were quarantined still resumes correctly by
        // re-running from the gap.
        let runner = Runner::new(2);
        let cfg = quick_cfg(8);
        let (golden, _) = run_campaign(&cfg, &runner).render();

        let dir = journal_dir("gap");
        let journal = open(&dir, &cfg, false).unwrap();
        journal.sync();
        drop(journal);
        // Plant an out-of-prefix record with corrupt counters at index 5.
        let (mut raw, _) = regmutex_durable::Journal::open(&dir.join("journal.log")).unwrap();
        raw.append("ok index=5 runs=999 esc=9");
        raw.sync();
        drop(raw);
        let resumed = open(&dir, &cfg, true).unwrap();
        assert_eq!(resumed.completed(), 1, "planted record must decode");
        let FuzzRun::Complete(report) = run_campaign_durable(&cfg, &runner, Some(&resumed), None)
        else {
            panic!("must complete");
        };
        assert_eq!(report.render().0, golden, "gap must force a full re-run");
    }

    #[test]
    fn json_stats_are_parseable_shape() {
        let runner = Runner::new(2);
        let report = run_campaign(&quick_cfg(5), &runner);
        let j = report.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"kernels\":5"), "{j}");
        assert!(j.contains("\"artifacts\":[]"), "{j}");
    }
}
