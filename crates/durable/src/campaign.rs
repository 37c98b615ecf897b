//! A resumable campaign over one [`Journal`]: the layer every journaled
//! verb (sweep, chaos, fuzz, fleet) shares.
//!
//! A campaign journal lives at `DIR/journal.log`. Its first record is the
//! caller's *meta* line, which pins the campaign identity; every later
//! record completes one key (a job fingerprint, an injection index, a
//! kernel index). [`Campaign::open`] does the whole resume dance once:
//!
//! - a fresh start truncates the journal and writes the meta line;
//! - a resume replays the journal (recovery notes go to stderr as
//!   `[tag] journal recovery: …`), refuses a journal whose meta line
//!   differs from this invocation's, and restarts clean on the same file
//!   when recovery left no records at all;
//! - the remaining records are folded through the caller's `decode`
//!   closure, keep-first per key, so a duplicated record (a replayed
//!   write) cannot flip an outcome. A record `decode` rejects is a gap:
//!   its key is simply not replayed and the work re-runs, which is safe
//!   because every campaign is deterministic.
//!
//! The record vocabulary stays with each caller: the meta line and the
//! `decode` closure. The one codec two callers share — sweep and fleet
//! both journal `job-ok fp=<016x>` — lives here ([`Campaign::job_ok`],
//! [`decode_job_ok`]).

use std::collections::HashMap;
use std::hash::Hash;
use std::path::Path;
use std::sync::Mutex;

use crate::Journal;

/// A campaign's append handle plus the completions replayed from a
/// previous run. Shareable across worker threads: appends serialize on
/// an internal lock.
#[derive(Debug)]
pub struct Campaign<K, V> {
    journal: Mutex<Journal>,
    replayed: HashMap<K, V>,
}

impl<K: Eq + Hash, V> Campaign<K, V> {
    /// Start (`resume == false`) or resume the campaign journaled under
    /// `dir`. `meta` is the campaign-identity line; `tag` prefixes the
    /// stderr diagnostics; `decode` maps one record to its completed key
    /// and value (`None` for anything it does not recognize).
    ///
    /// Errors are diagnosed refusals: an unreadable journal, a file that
    /// is not a journal, or a journal from a different campaign.
    pub fn open(
        dir: &Path,
        meta: &str,
        resume: bool,
        tag: &str,
        mut decode: impl FnMut(&str) -> Option<(K, V)>,
    ) -> Result<Self, String> {
        let path = dir.join("journal.log");
        if resume {
            let (journal, replay) = Journal::open(&path).map_err(|e| e.to_string())?;
            for d in &replay.diagnostics {
                eprintln!("[{tag}] journal recovery: {d}");
            }
            let mut records = replay.records.iter();
            if let Some(found) = records.next() {
                if found != meta {
                    let head = found.lines().next().unwrap_or(found);
                    return Err(format!(
                        "journal campaign mismatch: journal has `{head}`, \
                         this invocation is `{meta}`; refusing to resume"
                    ));
                }
                let mut replayed = HashMap::new();
                for rec in records {
                    if let Some((key, value)) = decode(rec) {
                        replayed.entry(key).or_insert(value);
                    }
                }
                if !replayed.is_empty() {
                    eprintln!(
                        "[{tag}] resuming: {} completions already journaled",
                        replayed.len()
                    );
                }
                return Ok(Campaign {
                    journal: Mutex::new(journal),
                    replayed,
                });
            }
            // Recovery ate everything (or the journal never got its
            // meta): nothing to resume, start clean on the same file.
        }
        let mut journal = Journal::create(&path)
            .map_err(|e| format!("cannot create journal in {}: {e}", dir.display()))?;
        journal.append(meta);
        journal.sync();
        Ok(Campaign {
            journal: Mutex::new(journal),
            replayed: HashMap::new(),
        })
    }

    /// How many keys a previous run completed.
    pub fn completed(&self) -> usize {
        self.replayed.len()
    }

    /// The value a previous run journaled for `key`, if any.
    pub fn replayed(&self, key: &K) -> Option<&V> {
        self.replayed.get(key)
    }

    /// Journal the completion of `key`, unless the run being resumed
    /// already did.
    pub fn append(&self, key: &K, record: &str) {
        if !self.replayed.contains_key(key) {
            self.append_unkeyed(record);
        }
    }

    /// Journal a record that completes no key (fleet worker-health
    /// transitions); never skipped.
    pub fn append_unkeyed(&self, record: &str) {
        self.journal
            .lock()
            .expect("campaign journal lock poisoned by a panicked appender")
            .append(record);
    }

    /// Flush batched appends (checkpoint boundary).
    pub fn sync(&self) {
        self.journal
            .lock()
            .expect("campaign journal lock poisoned by a panicked appender")
            .sync();
    }
}

impl Campaign<u64, ()> {
    /// Journal a verified job completion by fingerprint.
    pub fn job_ok(&self, fp: u64) {
        self.append(&fp, &job_ok_record(fp));
    }
}

/// The `job-ok fp=<016x>` completion record sweep and fleet journal.
fn job_ok_record(fp: u64) -> String {
    format!("job-ok fp={fp:016x}")
}

/// Decode a `job-ok fp=<016x>` record; `None` for any other record.
pub fn decode_job_ok(rec: &str) -> Option<(u64, ())> {
    let hex = rec.strip_prefix("job-ok fp=")?;
    Some((u64::from_str_radix(hex, 16).ok()?, ()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "rmx-campaign-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    /// Write `records` verbatim as a journal under `dir`.
    fn write_journal(dir: &Path, records: &[&str]) {
        let mut j = Journal::create(&dir.join("journal.log")).unwrap();
        for r in records {
            j.append(r);
        }
        j.sync();
    }

    fn records(dir: &Path) -> Vec<String> {
        Journal::open(&dir.join("journal.log")).unwrap().1.records
    }

    /// A toy codec: `done k=<n> v=<text>`.
    fn decode(rec: &str) -> Option<(u32, String)> {
        let (k, v) = rec.strip_prefix("done k=")?.split_once(" v=")?;
        Some((k.parse().ok()?, v.to_string()))
    }

    fn open(dir: &Path, meta: &str, resume: bool) -> Result<Campaign<u32, String>, String> {
        Campaign::open(dir, meta, resume, "test", decode)
    }

    #[test]
    fn fresh_start_writes_only_the_meta_line() {
        let d = tmpdir("fresh");
        write_journal(&d, &["meta old", "done k=1 v=a"]);
        let c = open(&d, "meta new", false).unwrap();
        assert_eq!(c.completed(), 0);
        drop(c);
        assert_eq!(records(&d), ["meta new"]);
    }

    #[test]
    fn mismatched_meta_is_refused() {
        let d = tmpdir("mismatch");
        write_journal(&d, &["meta kind=a", "done k=1 v=a"]);
        let err = open(&d, "meta kind=b", true).unwrap_err();
        assert!(err.contains("journal campaign mismatch"), "{err}");
        assert!(err.contains("`meta kind=a`") && err.contains("`meta kind=b`"));
        assert!(err.contains("refusing to resume"), "{err}");
        // The refusal leaves the journal alone.
        assert_eq!(open(&d, "meta kind=a", true).unwrap().completed(), 1);
    }

    #[test]
    fn emptied_journal_restarts_clean_on_the_same_file() {
        let d = tmpdir("emptied");
        // A header with nothing recoverable after it: recovery truncates
        // the garbage and leaves no records, not even the meta line.
        let mut raw = crate::journal::FILE_HEADER.to_vec();
        raw.extend_from_slice(&[0xAA; 40]);
        std::fs::write(d.join("journal.log"), &raw).unwrap();
        let c = open(&d, "meta kind=a", true).unwrap();
        assert_eq!(c.completed(), 0);
        c.append(&7, "done k=7 v=x");
        c.sync();
        drop(c);
        assert_eq!(records(&d), ["meta kind=a", "done k=7 v=x"]);
    }

    #[test]
    fn duplicate_key_keeps_the_first_record() {
        let d = tmpdir("dup");
        write_journal(
            &d,
            &[
                "meta",
                "done k=1 v=first",
                "done k=2 v=b",
                "done k=1 v=second",
            ],
        );
        let c = open(&d, "meta", true).unwrap();
        assert_eq!(c.completed(), 2);
        assert_eq!(c.replayed(&1).map(String::as_str), Some("first"));
        assert_eq!(c.replayed(&2).map(String::as_str), Some("b"));
    }

    #[test]
    fn undecodable_record_is_a_gap() {
        let d = tmpdir("gap");
        write_journal(&d, &["meta", "done k=x v=bad", "garbage", "done k=3 v=c"]);
        let mut seen = Vec::new();
        let c = Campaign::open(&d, "meta", true, "test", |rec| {
            seen.push(rec.to_string());
            decode(rec)
        })
        .unwrap();
        // Every record after the meta line reaches the decoder once; the
        // two it rejects leave no key behind.
        assert_eq!(seen, ["done k=x v=bad", "garbage", "done k=3 v=c"]);
        assert_eq!(c.completed(), 1);
        assert!(c.replayed(&3).is_some());
    }

    #[test]
    fn append_does_not_rejournal_a_replayed_key() {
        let d = tmpdir("append");
        write_journal(&d, &["meta", "done k=1 v=a"]);
        let c = open(&d, "meta", true).unwrap();
        c.append(&1, "done k=1 v=again");
        c.append(&2, "done k=2 v=b");
        c.append_unkeyed("note");
        c.sync();
        drop(c);
        assert_eq!(
            records(&d),
            ["meta", "done k=1 v=a", "done k=2 v=b", "note"]
        );
    }

    #[test]
    fn job_ok_codec_round_trips() {
        assert_eq!(job_ok_record(0xabc), "job-ok fp=0000000000000abc");
        assert_eq!(
            decode_job_ok(&job_ok_record(u64::MAX)),
            Some((u64::MAX, ()))
        );
        assert_eq!(decode_job_ok("job-ok fp=zz"), None);
        assert_eq!(decode_job_ok("quarantine addr=w:1"), None);
    }
}
