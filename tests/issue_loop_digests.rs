//! Pinned issue-stage digests: the SM issue loop must keep producing the
//! exact `SimStats` it produced when `tests/digests/issue_loop_digests.txt`
//! was recorded.
//!
//! Every generated fuzz kernel in the pinned seed range runs under all five
//! techniques, with cycle skipping on and off, under GTO and LRR (the OWF
//! technique always schedules owner-warp-first). Each line of the file is
//! the FNV-1a digest of one run's `SimStats::to_json` — or of the error
//! text, for runs that end in a verdict. Skip ≡ tick cannot catch a change
//! that both loops share (the issue stage is common to them); this file
//! can, because it was recorded by the issue loop as it was before the
//! scoreboard-stall memo, which must not move any of these digests.
//!
//! On a mismatch the test writes the digests it computed into Cargo's
//! per-target scratch directory and names that file in the panic message;
//! running the test at a trusted commit against an empty pinned file is how
//! the file is regenerated.

use regmutex::{Session, ALL_TECHNIQUES};
use regmutex_durable::fnv1a;
use regmutex_fuzz::generate;
use regmutex_sim::{GpuConfig, LaunchConfig, SchedulerPolicy};

/// Generator seeds covered by the pinned file.
const SEEDS: std::ops::Range<u64> = 0..100;

const PINNED: &str = include_str!("digests/issue_loop_digests.txt");

/// One line per run: `seed technique mode policy digest`.
fn compute() -> String {
    let mut out = String::new();
    for seed in SEEDS {
        let g = generate(seed);
        let launch = LaunchConfig::new(g.grid_ctas);
        for (mode, skipping) in [("skip", true), ("tick", false)] {
            for (policy_name, policy) in
                [("gto", SchedulerPolicy::Gto), ("lrr", SchedulerPolicy::Lrr)]
            {
                let mut cfg = if g.half_rf {
                    GpuConfig::gtx480_half_rf()
                } else {
                    GpuConfig::gtx480()
                };
                cfg.cycle_skipping = skipping;
                cfg.policy = policy;
                let session = Session::new(cfg);
                let compiled = session
                    .compile(&g.kernel)
                    .expect("generated kernels validate");
                for technique in ALL_TECHNIQUES {
                    let text = match session.run_compiled(&compiled, launch, technique) {
                        Ok(report) => report.stats.to_json(),
                        Err(e) => e.to_string(),
                    };
                    out.push_str(&format!(
                        "{seed} {technique} {mode} {policy_name} {:016x}\n",
                        fnv1a(text.as_bytes())
                    ));
                }
            }
        }
    }
    out
}

#[test]
fn issue_loop_reproduces_pinned_digests() {
    let actual = compute();
    if actual != PINNED {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("issue_loop_digests.txt");
        std::fs::write(&path, &actual).expect("write computed digests");
        let first = actual
            .lines()
            .zip(PINNED.lines())
            .find(|(a, p)| a != p)
            .map_or_else(
                || "line count differs".to_string(),
                |(a, p)| format!("got `{a}`, pinned `{p}`"),
            );
        panic!(
            "issue-loop digests moved ({first}); computed digests written to {}",
            path.display()
        );
    }
}
