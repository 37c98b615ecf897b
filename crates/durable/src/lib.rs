//! Crash-survivable campaign state: a checksummed append-only journal
//! and a content-addressed on-disk result store.
//!
//! Every long-running surface in the workspace — sweeps, the chaos
//! matrix, fleet coordination, the mass fuzzer — used to keep all
//! campaign progress in memory, so a SIGKILL at hour three lost
//! everything. This crate provides the two durable primitives they
//! journal through, plus the one campaign layer they all share (see
//! DESIGN.md §11):
//!
//! - [`Journal`]: an append-only record log. Each record is
//!   length-prefixed and carries an FNV-1a checksum over its length and
//!   payload, so a reopening reader can tell a torn tail (truncate and
//!   continue) from mid-file corruption (quarantine the record, resync
//!   on the next marker) from a file that is not a journal at all
//!   (diagnosed refusal). Appends batch their fsyncs.
//! - [`ResultStore`]: one file per result, named by the 64-bit job
//!   fingerprint, written atomically (tempfile + rename) with its own
//!   checksummed header. Content addressing makes the store safely
//!   shareable across campaigns: a key either maps to the one result it
//!   fingerprints or to nothing.
//! - [`Campaign`]: a resumable campaign over a journal — the meta-line
//!   identity check, the restart after a recovery that left nothing,
//!   keep-first folding of completion records through a caller-supplied
//!   decoder, and skip-if-replayed appends. Each campaign keeps only its
//!   meta line and record codec.
//!
//! Both primitives degrade rather than abort: any write-side I/O error (ENOSPC,
//! EIO, a yanked disk) flips the instance to in-memory-only operation
//! with a one-time stderr warning and bumps a process-wide counter
//! ([`degradation_count`]) that the server exposes as
//! `regmutex_durable_degradations_total`. The campaign keeps running;
//! it just stops being resumable past that point.
//!
//! The crate is std-only and dependency-free: payloads are opaque
//! bytes/UTF-8 to the journal; [`Campaign`] callers supply the meta line
//! and the record decoder, so the record vocabulary of each campaign kind
//! stays next to the code that writes it.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub mod campaign;
pub mod journal;
pub mod store;

pub use campaign::{decode_job_ok, Campaign};
pub use journal::{Journal, Replay};
pub use store::ResultStore;

/// FNV-1a offset basis (the same constants the runner's job
/// fingerprinter uses, so the on-disk formats share one hash family).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Process-wide count of write-side degradations (journal or store
/// dropping to in-memory-only after an I/O error).
static DEGRADATIONS: AtomicU64 = AtomicU64::new(0);

/// How many journal/store writers in this process have degraded to
/// in-memory-only operation after an I/O error.
pub fn degradation_count() -> u64 {
    DEGRADATIONS.load(Ordering::Relaxed)
}

/// Record a write-side failure: bump the process counter and warn once
/// per instance (`warned` belongs to the failing journal/store).
fn note_degradation(context: &str, err: &io::Error, warned: &AtomicBool) {
    DEGRADATIONS.fetch_add(1, Ordering::Relaxed);
    if !warned.swap(true, Ordering::Relaxed) {
        eprintln!(
            "warning: {context}: {err}; campaign continues in-memory only \
             (progress past this point will not be resumable)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Well-known FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
