//! Durable fuzz-campaign state for `fuzz --journal`.
//!
//! Every evaluated kernel appends one checksummed record to a
//! [`regmutex_durable::Journal`]: agreements as a one-line counter
//! record, divergences as a multi-line record carrying the full
//! minimized [`Artifact`] text. On `--resume` the journal is replayed
//! and [`crate::campaign::run_campaign_durable`] folds the contiguous
//! prefix of completed kernel indices into the report before evaluating
//! anything, so a SIGKILLed campaign continues where it stopped and
//! renders byte-identically to an uninterrupted run.
//!
//! The resume mechanics live in [`regmutex_durable::Campaign`]: the
//! journal layer rejects torn tails and flipped bits by checksum, and the
//! campaign layer refuses to resume when the pinned meta differs from
//! the current invocation and folds records keep-first (a duplicated
//! append cannot flip an outcome). This module keeps the fuzz-specific
//! vocabulary: [`meta_line`] and the kernel-record codec. A record
//! [`parse_kernel_record`] cannot decode is absent — the kernel simply
//! re-runs, which is always safe because evaluation is deterministic.

use regmutex::Technique;

use crate::artifact::Artifact;
use crate::campaign::{CampaignConfig, FoundDivergence};
use crate::oracle::{Divergence, DivergenceKind};

/// The campaign-identity line pinned as the journal's first record.
///
/// Everything that shapes the deterministic rendered report is pinned:
/// seed, index range, oracle budgets, planted fault, and minimizer
/// settings. Throughput knobs that the determinism contract already
/// proves irrelevant — `--jobs`, batch size, duration budget — are
/// deliberately excluded, so a campaign may resume at a different
/// parallelism than it started with.
pub fn meta_line(cfg: &CampaignConfig) -> String {
    let fault = cfg.fault.as_ref().map_or("-".to_string(), |f| {
        format!("{}:{}:{}:{}", f.class, f.severity, f.seed, f.technique)
    });
    format!(
        "meta kind=fuzz seed={:#x} start={} iters={} budget={} esc={} \
         fault={fault} minimize={} mintests={} maxdiv={}",
        cfg.seed,
        cfg.start,
        cfg.iters,
        cfg.oracle.cycle_budget,
        cfg.oracle.escalate_factor,
        u8::from(cfg.minimize),
        cfg.minimize_tests,
        cfg.max_divergences
    )
}

/// One journaled kernel evaluation. `runs` is the exact number of
/// simulator submissions the kernel cost (oracle runs + escalations +
/// minimizer probes), so replayed counters match a live run.
#[derive(Debug, Clone)]
pub enum KernelRecord {
    /// All invariants held.
    Agreement {
        /// Simulations attributed to this kernel.
        runs: u64,
        /// Blessed watchdog escalations.
        escalations: u32,
    },
    /// An invariant failed; the minimized divergence rides along.
    Divergence {
        /// Simulations attributed to this kernel (including minimizer).
        runs: u64,
        /// The reconstructed finding.
        found: FoundDivergence,
    },
}

pub(crate) fn encode_record(index: u64, rec: &KernelRecord) -> String {
    match rec {
        KernelRecord::Agreement { runs, escalations } => {
            format!("ok index={index} runs={runs} esc={escalations}")
        }
        KernelRecord::Divergence { runs, found } => format!(
            "div index={index} runs={runs} technique={} kind={} steps={} tests={} instr={}\n\
             detail={}\n{}",
            found.divergence.technique,
            found.divergence.kind.name(),
            found.minimize_steps,
            found.minimize_tests,
            found.instructions,
            found.divergence.detail,
            found.artifact.to_text()
        ),
    }
}

/// Decode one record; `None` means "not a kernel record / undecodable",
/// which the resume path treats as a gap (the kernel re-runs). The
/// decoder for [`regmutex_durable::Campaign::open`] on a fuzz journal.
pub fn parse_kernel_record(rec: &str) -> Option<(u64, KernelRecord)> {
    fn field<T: std::str::FromStr>(part: Option<&str>, key: &str) -> Option<T> {
        part?.strip_prefix(key)?.parse().ok()
    }
    if let Some(rest) = rec.strip_prefix("ok ") {
        let mut f = rest.split(' ');
        let index = field(f.next(), "index=")?;
        let runs = field(f.next(), "runs=")?;
        let escalations = field(f.next(), "esc=")?;
        if f.next().is_some() {
            return None;
        }
        return Some((index, KernelRecord::Agreement { runs, escalations }));
    }
    let rest = rec.strip_prefix("div ")?;
    let (header, body) = rest.split_once('\n')?;
    let mut f = header.split(' ');
    let index: u64 = field(f.next(), "index=")?;
    let runs = field(f.next(), "runs=")?;
    let technique: Technique = field(f.next(), "technique=")?;
    let kind = DivergenceKind::parse(f.next()?.strip_prefix("kind=")?).ok()?;
    let steps = field(f.next(), "steps=")?;
    let tests = field(f.next(), "tests=")?;
    let instructions = field(f.next(), "instr=")?;
    if f.next().is_some() {
        return None;
    }
    let (detail_line, artifact_text) = body.split_once('\n')?;
    let detail = detail_line.strip_prefix("detail=")?.to_string();
    let artifact = Artifact::parse(artifact_text).ok()?;
    let found = FoundDivergence {
        index,
        seed: artifact.seed,
        divergence: Divergence {
            technique,
            kind,
            detail,
        },
        artifact,
        instructions,
        minimize_steps: steps,
        minimize_tests: tests,
    };
    Some((index, KernelRecord::Divergence { runs, found }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::Expectation;

    fn divergence_record() -> KernelRecord {
        let artifact = Artifact {
            seed: 0xabcd,
            trace: vec![1, 0, 3],
            fault: None,
            expect: Expectation::Divergence(Technique::RegMutex, DivergenceKind::Checksum),
            note: Some("minimized from campaign seed 0xfeed index 7".into()),
        };
        KernelRecord::Divergence {
            runs: 41,
            found: FoundDivergence {
                index: 7,
                seed: 0xabcd,
                divergence: Divergence {
                    technique: Technique::RegMutex,
                    kind: DivergenceKind::Checksum,
                    detail: "store checksum 0x1 != baseline 0x2".into(),
                },
                artifact,
                instructions: 12,
                minimize_steps: 3,
                minimize_tests: 17,
            },
        }
    }

    #[test]
    fn agreement_record_round_trips() {
        let rec = KernelRecord::Agreement {
            runs: 6,
            escalations: 1,
        };
        let (index, back) = parse_kernel_record(&encode_record(9, &rec)).unwrap();
        assert_eq!(index, 9);
        match back {
            KernelRecord::Agreement { runs, escalations } => {
                assert_eq!((runs, escalations), (6, 1));
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn divergence_record_round_trips() {
        let rec = divergence_record();
        let (index, back) = parse_kernel_record(&encode_record(7, &rec)).unwrap();
        assert_eq!(index, 7);
        let (
            KernelRecord::Divergence { runs, found },
            KernelRecord::Divergence { found: want, .. },
        ) = (back, rec)
        else {
            panic!("wrong variant");
        };
        assert_eq!(runs, 41);
        assert_eq!(found.index, want.index);
        assert_eq!(found.seed, want.seed);
        assert_eq!(found.divergence.technique, want.divergence.technique);
        assert_eq!(found.divergence.kind, want.divergence.kind);
        assert_eq!(found.divergence.detail, want.divergence.detail);
        assert_eq!(found.artifact, want.artifact);
        assert_eq!(found.instructions, want.instructions);
        assert_eq!(found.minimize_steps, want.minimize_steps);
        assert_eq!(found.minimize_tests, want.minimize_tests);
    }

    #[test]
    fn journal_written_by_an_earlier_build_resumes() {
        // The exact on-disk vocabulary, as literals: the meta line of
        // `fuzz --seed 0xc1 --iters 600`, one agreement and one
        // divergence carrying its minimized artifact.
        let cfg = CampaignConfig {
            seed: 0xc1,
            iters: 600,
            ..CampaignConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("rmx-fuzz-compat-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut j = regmutex_durable::Journal::create(&dir.join("journal.log")).unwrap();
        for rec in [
            "meta kind=fuzz seed=0xc1 start=0 iters=600 budget=400000 esc=8 fault=- \
             minimize=1 mintests=12000 maxdiv=5",
            "ok index=0 runs=5 esc=0",
            "div index=1 runs=41 technique=regmutex kind=verdict steps=3 tests=17 instr=12\n\
             detail=regmutex faulted, baseline completed\n\
             # regmutex-fuzz artifact v1\nversion=1\nseed=0xe0525efaf3cdbac8\n\
             trace=4,5,1,6,1,2,7,0,0\nfault=stuck-srp-bit:severe:5:regmutex\n\
             expect=divergence:regmutex:verdict\nnote=minimized from campaign seed 0xc1 index 1\n",
        ] {
            j.append(rec);
        }
        j.sync();
        drop(j);

        let meta = meta_line(&cfg);
        let c = regmutex_durable::Campaign::open(&dir, &meta, true, "fuzz", parse_kernel_record)
            .unwrap();
        assert_eq!(c.completed(), 2);
        let Some(KernelRecord::Agreement { runs, escalations }) = c.replayed(&0) else {
            panic!("index 0 must replay as an agreement");
        };
        assert_eq!((*runs, *escalations), (5, 0));
        let Some(KernelRecord::Divergence { runs, found }) = c.replayed(&1) else {
            panic!("index 1 must replay as a divergence");
        };
        assert_eq!(*runs, 41);
        assert_eq!(found.divergence.kind, DivergenceKind::Verdict);
        assert_eq!(
            found.divergence.detail,
            "regmutex faulted, baseline completed"
        );
        assert_eq!(found.seed, 0xe052_5efa_f3cd_bac8);
        assert_eq!(
            (
                found.instructions,
                found.minimize_steps,
                found.minimize_tests
            ),
            (12, 3, 17)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_records_are_gaps_not_panics() {
        for bad in [
            "",
            "ok",
            "ok index=1 runs=x esc=0",
            "ok index=1 runs=2 esc=0 extra=1",
            "div index=1 runs=2",
            "div index=1 runs=2 technique=nope kind=checksum steps=0 tests=0 instr=1\ndetail=d\nx",
            "inj index=0 outcome=benign",
        ] {
            assert!(parse_kernel_record(bad).is_none(), "accepted: {bad:?}");
        }
    }
}
