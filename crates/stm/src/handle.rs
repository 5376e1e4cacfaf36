//! Top-level transaction handles and program-directed abort.
//!
//! txlint: metrics — metrics-emitter argument spans here must not allocate
//! or format (TX014).
//!
//! The paper (§4, "Program-directed transaction abort") requires that "an
//! open-nested transaction needs a way to request a reference to its top-level
//! transaction that can be stored as the owner of a lock. Later if another
//! transaction detects a conflict with that lock, the transaction reference
//! can be used to abort the conflicting transaction." [`TxHandle`] is that
//! reference: semantic lock tables store `Arc<TxHandle>` owners, and a
//! committing transaction's commit handler calls [`TxHandle::doom`] on
//! conflicting owners.
//!
//! A fresh handle is created for every top-level *attempt*, so a doom aimed at
//! a previous attempt can never spuriously kill a retry.
//!
//! ## Doom vs. commit
//!
//! Since the commit path was sharded (per-`TVar` versioned locks instead of a
//! global commit mutex), a doom can race with the victim's own commit. The
//! race is decided by a single atomic word holding both the lifecycle state
//! and the doom bit: [`TxHandle::doom`] is a CAS that only succeeds while the
//! state is `Active`, and the committer's first irrevocable step is a CAS from
//! `Active` (with the doom bit clear) to an internal *committing* state. One
//! of the two CASes wins; a doomed transaction can never publish, and a
//! transaction that has started publishing can never be doomed.

use crate::metrics::{self, Total};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_TX_ID: AtomicU64 = AtomicU64::new(1);

// Layout of `TxHandle::word`: low two bits are the lifecycle state, bit 2 is
// the doom request. Committing is an internal fourth state (reported as
// `Active` to observers: the transaction has not finished, it merely can no
// longer be doomed).
const STATE_ACTIVE: u32 = 0;
const STATE_COMMITTED: u32 = 1;
const STATE_ABORTED: u32 = 2;
const STATE_COMMITTING: u32 = 3;
const STATE_MASK: u32 = 0b011;
const DOOM_BIT: u32 = 0b100;

/// Lifecycle state of a top-level transaction attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TxState {
    /// Still executing (or waiting to commit).
    Active = 0,
    /// Passed the point of no return; dooming it is a no-op.
    Committed = 1,
    /// Aborted (doomed, conflicted, or explicitly).
    Aborted = 2,
}

/// Identity of one top-level transaction attempt.
///
/// Handles are the owners recorded in semantic lock tables and the target of
/// program-directed abort. They are cheap to clone (`Arc`) and compare by
/// [`TxHandle::id`].
#[derive(Debug)]
pub struct TxHandle {
    id: u64,
    /// `(doom bit | lifecycle state)` in one word — see the module docs.
    word: AtomicU32,
    /// Number of prior aborted attempts of the same logical transaction;
    /// contention managers use it as a priority hint.
    retries: AtomicU32,
    /// Attempt id of the transaction whose doom landed on this one (0 when
    /// never doomed or doomed without attribution). Written before the doom
    /// CAS, so any observer of the doom bit sees it; racing doomers may
    /// overwrite each other, which is benign — each was a real conflict.
    culprit: AtomicU64,
}

impl TxHandle {
    /// Create a handle for a new top-level attempt. `retries` carries the
    /// abort count of the logical transaction across attempts.
    pub fn new(retries: u32) -> Arc<Self> {
        Arc::new(TxHandle {
            id: NEXT_TX_ID.fetch_add(1, Ordering::Relaxed),
            word: AtomicU32::new(STATE_ACTIVE),
            retries: AtomicU32::new(retries),
            culprit: AtomicU64::new(0),
        })
    }

    /// Unique id of this attempt.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of times the logical transaction behind this attempt has
    /// already aborted.
    pub fn retries(&self) -> u32 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Current lifecycle state. The internal committing phase reports as
    /// [`TxState::Active`]: the transaction has not finished, and observers
    /// (lock tables pruning finished owners) must keep treating it as live.
    pub fn state(&self) -> TxState {
        match self.word.load(Ordering::Acquire) & STATE_MASK {
            STATE_COMMITTED => TxState::Committed,
            STATE_ABORTED => TxState::Aborted,
            _ => TxState::Active,
        }
    }

    /// Request that this transaction abort (program-directed abort).
    ///
    /// Returns `true` if the doom landed while the transaction was still
    /// active. Dooming a committed transaction has no effect — the caller
    /// already serialized after it. The CAS loop races against the victim's
    /// own `begin_commit`: once the victim has entered
    /// its committing phase the doom fails, so "doomed" and "published" are
    /// mutually exclusive outcomes of a single atomic word.
    #[must_use = "whether the doom landed; a false return means the target already finished"]
    pub fn doom(&self) -> bool {
        self.doom_from(0)
    }

    /// [`doom`](Self::doom) with provenance: `doomer` is the attempt id of
    /// the committing transaction issuing the doom, recorded as this
    /// victim's [`culprit`](Self::culprit) so the abort path (and the trace
    /// layer) can attribute the abort. Pass 0 for an unattributed doom.
    #[must_use = "whether the doom landed; a false return means the target already finished"]
    pub fn doom_from(&self, doomer: u64) -> bool {
        let mut w = self.word.load(Ordering::Acquire);
        loop {
            if w & STATE_MASK != STATE_ACTIVE {
                return false;
            }
            if w & DOOM_BIT != 0 {
                // Already doomed: the first doomer keeps the attribution.
                return true;
            }
            // Store the culprit before the CAS so the release on a
            // successful CAS publishes it to whoever observes the doom bit.
            self.culprit.store(doomer, Ordering::Relaxed);
            match self.word.compare_exchange_weak(
                w,
                w | DOOM_BIT,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    metrics::tally(Total::DoomsIssued);
                    return true;
                }
                Err(cur) => w = cur,
            }
        }
    }

    /// Attempt id of the transaction that doomed this one (0 when never
    /// doomed or doomed without attribution). Meaningful only after
    /// [`is_doomed`](Self::is_doomed) returns true.
    pub fn culprit(&self) -> u64 {
        self.culprit.load(Ordering::Relaxed)
    }

    /// Whether a doom request has been posted.
    #[inline]
    #[must_use]
    pub fn is_doomed(&self) -> bool {
        self.word.load(Ordering::Acquire) & DOOM_BIT != 0
    }

    /// Enter the committing phase: the point of no return with respect to
    /// dooming. Fails iff a doom landed first (or the state is not active).
    /// Call after read validation succeeds and before the first write is
    /// published.
    pub(crate) fn begin_commit(&self) -> Result<(), ()> {
        match self.word.compare_exchange(
            STATE_ACTIVE,
            STATE_COMMITTING,
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(()),
            Err(_) => Err(()),
        }
    }

    pub(crate) fn mark_committed(&self) {
        self.word.store(STATE_COMMITTED, Ordering::Release);
    }

    pub(crate) fn mark_aborted(&self) {
        self.word.store(STATE_ABORTED, Ordering::Release);
    }
}

impl PartialEq for TxHandle {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for TxHandle {}

impl std::hash::Hash for TxHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let a = TxHandle::new(0);
        let b = TxHandle::new(0);
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn doom_only_lands_on_active() {
        let h = TxHandle::new(0);
        assert_eq!(h.state(), TxState::Active);
        assert!(h.doom());
        assert!(h.is_doomed());

        let h2 = TxHandle::new(0);
        h2.mark_committed();
        assert!(!h2.doom());
        assert!(!h2.is_doomed());
    }

    #[test]
    fn doom_and_begin_commit_are_mutually_exclusive() {
        // Doom first: the commit CAS must fail.
        let h = TxHandle::new(0);
        assert!(h.doom());
        assert!(h.begin_commit().is_err());
        assert_eq!(h.state(), TxState::Active);

        // Commit first: the doom must fail, and the handle still reads as
        // Active (it has not finished) until mark_committed.
        let h2 = TxHandle::new(0);
        assert!(h2.begin_commit().is_ok());
        assert!(!h2.doom());
        assert!(!h2.is_doomed());
        assert_eq!(h2.state(), TxState::Active);
        h2.mark_committed();
        assert_eq!(h2.state(), TxState::Committed);
    }

    #[test]
    fn doom_from_records_first_culprit() {
        let victim = TxHandle::new(0);
        assert_eq!(victim.culprit(), 0);
        assert!(victim.doom_from(42));
        assert_eq!(victim.culprit(), 42);
        // A second doom still reports success but keeps the attribution.
        assert!(victim.doom_from(99));
        assert_eq!(victim.culprit(), 42);
    }

    #[test]
    fn handles_compare_by_id() {
        let a = TxHandle::new(0);
        let b = TxHandle::new(0);
        assert_eq!(*a, *a);
        assert_ne!(*a, *b);
    }
}
