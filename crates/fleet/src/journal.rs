//! Durable fleet-campaign state for `coordinator --journal`.
//!
//! The coordinator's resume story has two layers. The *results* live in
//! the content-addressed [`DurableTier`](regmutex_bench::DurableTier)
//! (`<dir>/store/<fingerprint>`), which the dispatcher probes before
//! dispatching — a completed job replays from disk instead of going back
//! to a worker. The *campaign cursor and worker health* live here: one
//! checksummed record per verified job completion (`job-ok fp=…`) plus
//! worker quarantine/readmission transitions, so a resumed run can report
//! real progress, refuse a journal from a different campaign, and restore
//! circuit-breaker state without treating it as permanent — resume
//! re-probes every journaled quarantine before dispatching
//! ([`Coordinator::reprobe_quarantined`](crate::Coordinator::reprobe_quarantined)).
//!
//! The resume mechanics — meta check, keep-first `job-ok` fold,
//! corruption handling — come from [`regmutex_durable::Campaign`]. This
//! module keeps only what is fleet-specific: the meta line and the
//! last-wins quarantine/readmit fold, which runs inside the decoder. An
//! undecodable record is simply absent — the job re-dispatches, which is
//! safe because results are verified end-to-end.

use std::collections::HashMap;
use std::path::Path;

use regmutex_durable::{decode_job_ok, Campaign};

/// Durable campaign state: the shared [`Campaign`] (keyed by job
/// fingerprint) plus the final worker-health state replayed from a
/// previous run.
#[derive(Debug)]
pub struct FleetJournal {
    campaign: Campaign<u64, ()>,
    quarantined: Vec<String>,
}

impl FleetJournal {
    /// Start (`resume == false`) or resume the campaign journaled under
    /// `dir`. `campaign` pins the job matrix identity — everything that
    /// determines *which* jobs run, excluding throughput knobs (worker
    /// list, threads, seed) that the determinism contract proves
    /// output-irrelevant. On resume, quarantine/readmit transitions fold
    /// last-wins to the final per-worker state.
    pub fn open(dir: &Path, campaign: &str, resume: bool) -> Result<FleetJournal, String> {
        let mut health: HashMap<String, bool> = HashMap::new();
        let campaign = Campaign::open(
            dir,
            &format!("meta kind=fleet {campaign}"),
            resume,
            "fleet",
            |rec| {
                if let Some(addr) = rec.strip_prefix("quarantine addr=") {
                    health.insert(addr.to_string(), true);
                } else if let Some(addr) = rec.strip_prefix("readmit addr=") {
                    health.insert(addr.to_string(), false);
                }
                // Anything else that is not a job-ok is unknown/corrupt:
                // a missing job-ok re-dispatches; a missing health
                // transition is corrected by the resume re-probe.
                decode_job_ok(rec)
            },
        )?;
        let quarantined = health
            .into_iter()
            .filter(|&(_, q)| q)
            .map(|(addr, _)| addr)
            .collect();
        Ok(FleetJournal {
            campaign,
            quarantined,
        })
    }

    /// [`FleetJournal::open`] for a fresh campaign (truncating any
    /// previous journal under `dir`).
    pub fn create(dir: &Path, campaign: &str) -> Result<FleetJournal, String> {
        FleetJournal::open(dir, campaign, false)
    }

    /// [`FleetJournal::open`] resuming an existing journal.
    pub fn resume(dir: &Path, campaign: &str) -> Result<FleetJournal, String> {
        FleetJournal::open(dir, campaign, true)
    }

    /// Workers whose final journaled state was quarantined. Feed these to
    /// [`Coordinator::quarantine_workers`](crate::Coordinator::quarantine_workers);
    /// the pre-dispatch re-probe keeps the state from going stale.
    pub fn quarantined(&self) -> &[String] {
        &self.quarantined
    }

    pub(crate) fn job_ok(&self, fp: u64) {
        self.campaign.job_ok(fp);
    }

    pub(crate) fn quarantine(&self, addr: &str) {
        self.campaign
            .append_unkeyed(&format!("quarantine addr={addr}"));
    }

    pub(crate) fn readmit(&self, addr: &str) {
        self.campaign
            .append_unkeyed(&format!("readmit addr={addr}"));
    }

    /// Flush batched appends (checkpoint boundary).
    pub fn sync(&self) {
        self.campaign.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "rmx-fleetjournal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn completions_and_health_replay() {
        let d = dir("replay");
        let j = FleetJournal::create(&d, "fig07 budget=-").unwrap();
        j.job_ok(0xabc);
        j.job_ok(0xdef);
        j.job_ok(0xabc); // duplicate append is harmless
        j.quarantine("w1:1");
        j.quarantine("w2:2");
        j.readmit("w1:1");
        j.sync();
        drop(j);

        let j = FleetJournal::resume(&d, "fig07 budget=-").unwrap();
        assert_eq!(j.campaign.completed(), 2);
        let contains = |fp| j.campaign.replayed(&fp).is_some();
        assert!(contains(0xabc) && contains(0xdef) && !contains(0x123));
        assert_eq!(j.quarantined(), ["w2:2"]);
        // A replayed completion is not re-journaled.
        j.job_ok(0xabc);
        j.job_ok(0x999);
        j.sync();
        drop(j);
        let j = FleetJournal::resume(&d, "fig07 budget=-").unwrap();
        assert_eq!(j.campaign.completed(), 3);
    }

    #[test]
    fn journal_written_by_an_earlier_build_resumes() {
        // The exact on-disk vocabulary: meta line, job-ok records and
        // health transitions, as literals.
        let d = dir("compat");
        let mut j = regmutex_durable::Journal::create(&d.join("journal.log")).unwrap();
        for rec in [
            "meta kind=fleet fig07 budget=-",
            "job-ok fp=00000000deadbeef",
            "quarantine addr=127.0.0.1:9001",
            "job-ok fp=0123456789abcdef",
            "quarantine addr=127.0.0.1:9002",
            "readmit addr=127.0.0.1:9001",
        ] {
            j.append(rec);
        }
        j.sync();
        drop(j);

        let j = FleetJournal::resume(&d, "fig07 budget=-").unwrap();
        assert_eq!(j.campaign.completed(), 2);
        assert!(j.campaign.replayed(&0xdead_beef).is_some());
        assert!(j.campaign.replayed(&0x0123_4567_89ab_cdef).is_some());
        assert_eq!(j.quarantined(), ["127.0.0.1:9002"]);
    }

    #[test]
    fn mismatched_campaign_is_refused() {
        let d = dir("mismatch");
        drop(FleetJournal::create(&d, "fig07 budget=-").unwrap());
        let err = FleetJournal::resume(&d, "fig07 budget=5000").unwrap_err();
        assert!(err.contains("refusing to resume"), "{err}");
        assert!(FleetJournal::resume(&d, "fig07 budget=-").is_ok());
    }
}
