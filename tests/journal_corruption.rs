//! Journal-corruption injection at the campaign level.
//!
//! The durability contract: whatever happens to the bytes on disk — torn
//! tails from a crash mid-write, flipped bits from a bad sector,
//! duplicated records from a replayed write — a resumed campaign either
//! recovers to output byte-identical to an uninterrupted run, or refuses
//! with a diagnosis. It never silently diverges. These tests corrupt a
//! real fuzz-campaign journal in each documented way and check exactly
//! that, using the on-disk record framing directly (magic + length +
//! checksum) so the corruption lands where a real fault would.

use std::path::{Path, PathBuf};

use regmutex_bench::Runner;
use regmutex_durable::Campaign;
use regmutex_fuzz::journal::{meta_line, parse_kernel_record};
use regmutex_fuzz::{run_campaign, run_campaign_durable, CampaignConfig, FuzzRun, KernelRecord};

fn dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "rmx-journal-corruption-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn campaign() -> CampaignConfig {
    CampaignConfig {
        seed: 0xc1,
        iters: 40,
        ..CampaignConfig::default()
    }
}

/// Start (`resume == false`) or resume the fuzz campaign journal in `d`.
fn open(
    d: &Path,
    cfg: &CampaignConfig,
    resume: bool,
) -> Result<Campaign<u64, KernelRecord>, String> {
    Campaign::open(d, &meta_line(cfg), resume, "fuzz", parse_kernel_record)
}

/// Run the campaign durably into `d`, returning the golden render of an
/// uninterrupted (journal-free) run for comparison.
fn seed_journal(d: &Path) -> String {
    let cfg = campaign();
    let golden = run_campaign(&cfg, &Runner::new(2)).render().0;
    let journal = open(d, &cfg, false).unwrap();
    match run_campaign_durable(&cfg, &Runner::new(2), Some(&journal), None) {
        FuzzRun::Complete(report) => assert_eq!(report.render().0, golden),
        FuzzRun::Checkpointed { .. } => unreachable!("no cancel installed"),
    }
    golden
}

/// Resume over whatever is on disk; the render must equal `golden`.
fn resume_matches(d: &Path, golden: &str) {
    let cfg = campaign();
    let journal = open(d, &cfg, true).expect("recoverable journal");
    match run_campaign_durable(&cfg, &Runner::new(2), Some(&journal), None) {
        FuzzRun::Complete(report) => assert_eq!(
            report.render().0,
            golden,
            "corrupted-journal resume diverged from the golden run"
        ),
        FuzzRun::Checkpointed { .. } => unreachable!("no cancel installed"),
    }
}

/// Parse the on-disk framing and return each record's (start, total_len),
/// including the file header as record offsets' base. Framing:
/// 8-byte file header, then per record: 4-byte magic, 4-byte LE length,
/// 8-byte checksum, payload.
fn record_spans(bytes: &[u8]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut off = 8;
    while off + 16 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap()) as usize;
        let total = 16 + len;
        if off + total > bytes.len() {
            break;
        }
        spans.push((off, total));
        off += total;
    }
    spans
}

fn journal_bytes(d: &Path) -> Vec<u8> {
    std::fs::read(d.join("journal.log")).unwrap()
}

fn write_journal(d: &Path, bytes: &[u8]) {
    std::fs::write(d.join("journal.log"), bytes).unwrap();
}

#[test]
fn bit_flip_in_a_record_is_quarantined_and_rerun() {
    let d = dir("bitflip");
    let golden = seed_journal(&d);
    let mut bytes = journal_bytes(&d);
    let spans = record_spans(&bytes);
    assert!(spans.len() > 2, "meta + per-kernel records expected");
    // Flip one payload bit in the second data record (the first is the
    // campaign meta — flipping that is the refusal test below).
    let (start, _) = spans[2];
    bytes[start + 16 + 1] ^= 0x10;
    write_journal(&d, &bytes);
    // The checksum catches it, the record is quarantined, the affected
    // kernel (and everything after the resulting gap) re-runs.
    resume_matches(&d, &golden);
}

#[test]
fn torn_tail_is_truncated_and_rerun() {
    let d = dir("torn");
    let golden = seed_journal(&d);
    let bytes = journal_bytes(&d);
    let spans = record_spans(&bytes);
    // Cut mid-way through the last record — a crash mid-append.
    let (last_start, last_total) = *spans.last().unwrap();
    write_journal(&d, &bytes[..last_start + last_total / 2]);
    resume_matches(&d, &golden);
}

#[test]
fn duplicated_records_keep_first_and_stay_identical() {
    let d = dir("dup");
    let golden = seed_journal(&d);
    let mut bytes = journal_bytes(&d);
    let spans = record_spans(&bytes);
    // Replay two whole records at the tail — a double-applied write
    // batch. Keep-first semantics make the duplicates inert.
    let (s1, t1) = spans[1];
    let (s2, t2) = spans[2];
    let dup: Vec<u8> = bytes[s1..s1 + t1]
        .iter()
        .chain(&bytes[s2..s2 + t2])
        .copied()
        .collect();
    bytes.extend_from_slice(&dup);
    write_journal(&d, &bytes);
    resume_matches(&d, &golden);
}

#[test]
fn corrupted_file_header_is_a_diagnosed_refusal() {
    let d = dir("header");
    let _ = seed_journal(&d);
    let mut bytes = journal_bytes(&d);
    bytes[3] ^= 0xff;
    write_journal(&d, &bytes);
    let err = open(&d, &campaign(), true).expect_err("bad header must refuse");
    assert!(!err.is_empty());
}

#[test]
fn corrupted_meta_record_is_a_diagnosed_refusal_or_clean_restart() {
    let d = dir("meta");
    let golden = seed_journal(&d);
    let mut bytes = journal_bytes(&d);
    let (meta_start, _) = record_spans(&bytes)[0];
    bytes[meta_start + 16] ^= 0x01;
    write_journal(&d, &bytes);
    // The meta record fails its checksum and is quarantined; with no
    // verifiable campaign identity the resume must not trust any of the
    // journaled completions. Whichever way the implementation lands —
    // refusal or a from-scratch re-run — silent divergence is the one
    // forbidden outcome.
    let cfg = campaign();
    match open(&d, &cfg, true) {
        Err(err) => assert!(!err.is_empty()),
        Ok(journal) => match run_campaign_durable(&cfg, &Runner::new(2), Some(&journal), None) {
            FuzzRun::Complete(report) => assert_eq!(report.render().0, golden),
            FuzzRun::Checkpointed { .. } => unreachable!("no cancel installed"),
        },
    }
}
