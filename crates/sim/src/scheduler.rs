//! Warp scheduler ordering policies.
//!
//! Each SM has `num_schedulers` schedulers; warp slot `s` belongs to
//! scheduler `s % num_schedulers` (Fermi-style static partitioning). A
//! scheduler ranks its candidate warps each cycle and the SM issues from the
//! first candidate that can actually issue.

use crate::config::SchedulerPolicy;

/// Per-scheduler persistent state.
#[derive(Debug, Clone, Default)]
pub struct SchedulerState {
    /// Slot of the warp issued last cycle (GTO greediness).
    pub last_issued: Option<u32>,
    /// Round-robin cursor (LRR).
    pub rr_cursor: u32,
}

/// A candidate warp as the policy sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Warp slot.
    pub slot: u32,
    /// Admission age (smaller = older).
    pub age: u64,
    /// Technique-supplied priority (owner-warp-first); higher = preferred.
    pub priority: u8,
}

/// A candidate's rank under a policy: smaller keys issue first.
///
/// Fields, compared in order: inverted technique priority (only
/// owner-warp-first sets it), whether the candidate is *not* the preferred
/// warp (the greedily-held one for GTO/OWF, one at or before the cursor for
/// LRR), and a tie-break unique per resident warp (admission age, or the
/// slot for LRR). Uniqueness means no two candidates ever share a key.
pub type OrderKey = (u8, bool, u64);

/// The rank of `c` under `policy` and `state`. [`order_candidates`] sorts
/// by it, and the issue stage compares it against the best warp it skipped
/// (the scoreboard-stall memo), so both share this one definition.
///
/// * GTO: the greedily-held warp first (if still a candidate), then oldest
///   first.
/// * LRR: rotation starting after the cursor.
/// * OwnerWarpFirst: priority (descending), then GTO order.
pub fn order_key(policy: SchedulerPolicy, state: &SchedulerState, c: &Candidate) -> OrderKey {
    let not_greedy = c.slot != state.last_issued.unwrap_or(u32::MAX);
    match policy {
        SchedulerPolicy::Gto => (0, not_greedy, c.age),
        SchedulerPolicy::Lrr => (0, c.slot <= state.rr_cursor, u64::from(c.slot)),
        SchedulerPolicy::OwnerWarpFirst => (u8::MAX - c.priority, not_greedy, c.age),
    }
}

/// Order `candidates` in place by [`order_key`].
pub fn order_candidates(
    policy: SchedulerPolicy,
    state: &SchedulerState,
    candidates: &mut [Candidate],
) {
    // Unstable sorts are deterministic here: keys are unique per resident
    // warp, so stability cannot matter. The unstable sort avoids the
    // temporary buffer `sort_by_key` allocates for slices longer than 20
    // elements — this runs on the per-cycle hot path.
    candidates.sort_unstable_by_key(|c| order_key(policy, state, c));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(slot: u32, age: u64, priority: u8) -> Candidate {
        Candidate {
            slot,
            age,
            priority,
        }
    }

    #[test]
    fn gto_prefers_last_issued_then_oldest() {
        let st = SchedulerState {
            last_issued: Some(4),
            rr_cursor: 0,
        };
        let mut v = vec![c(0, 5, 0), c(2, 1, 0), c(4, 9, 0)];
        order_candidates(SchedulerPolicy::Gto, &st, &mut v);
        assert_eq!(v[0].slot, 4); // greedy
        assert_eq!(v[1].slot, 2); // oldest
        assert_eq!(v[2].slot, 0);
    }

    #[test]
    fn gto_without_greedy_warp_is_oldest_first() {
        let st = SchedulerState::default();
        let mut v = vec![c(0, 5, 0), c(2, 1, 0)];
        order_candidates(SchedulerPolicy::Gto, &st, &mut v);
        assert_eq!(v[0].slot, 2);
    }

    #[test]
    fn lrr_rotates_after_cursor() {
        let st = SchedulerState {
            last_issued: None,
            rr_cursor: 2,
        };
        let mut v = vec![c(0, 0, 0), c(2, 0, 0), c(4, 0, 0), c(6, 0, 0)];
        order_candidates(SchedulerPolicy::Lrr, &st, &mut v);
        let slots: Vec<u32> = v.iter().map(|x| x.slot).collect();
        assert_eq!(slots, vec![4, 6, 0, 2]);
    }

    #[test]
    fn owf_puts_owners_first() {
        let st = SchedulerState {
            last_issued: Some(0),
            rr_cursor: 0,
        };
        let mut v = vec![c(0, 0, 0), c(2, 9, 1), c(4, 3, 0)];
        order_candidates(SchedulerPolicy::OwnerWarpFirst, &st, &mut v);
        assert_eq!(v[0].slot, 2); // owner beats greedy
        assert_eq!(v[1].slot, 0); // then greedy
        assert_eq!(v[2].slot, 4);
    }
}
