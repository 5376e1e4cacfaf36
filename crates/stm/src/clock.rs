//! Global version clock, per-`TVar` commit locking, and the handler lane.
//!
//! txlint: commit-internals — everything here is `pub(crate)`: the only way
//! to publish writes is through [`CommitGuard`] / [`publish_direct`], so no
//! collection-layer code can bypass the commit protocol.
//!
//! txlint: metrics — metrics-emitter argument spans here must not allocate
//! or format (TX014).
//!
//! The STM uses a single monotonically increasing version clock. Every
//! committed write stamps its `TVar` with a version drawn from this clock
//! (one atomic `fetch_add` per writing commit), and every transaction records
//! the clock value at which it started (`rv`). A read observing a version
//! newer than `rv` triggers timestamp extension or a retry, which is what
//! gives transactions an opaque (always-consistent) view of memory.
//!
//! ## The sharded commit protocol (TL2-style two-phase commit)
//!
//! There is no global commit mutex. A writing commit instead:
//!
//! 1. acquires the per-var versioned **commit locks** of its entire write set
//!    in `VarId` order (globally consistent order ⇒ deadlock-free) via
//!    [`CommitGuard::lock_write_set`];
//! 2. validates its read set against the per-var version stamps with
//!    [`CommitGuard::read_valid`] — failing fast (no spinning) if a read-set
//!    var is locked by another committer, which both avoids hold-and-wait
//!    cycles between committers and is almost always the right call (a held
//!    lock means the version is about to change);
//! 3. wins the doom-vs-commit race (`TxHandle::begin_commit`, top-level
//!    only);
//! 4. draws a fresh write version with one clock `fetch_add` and applies the
//!    write set ([`CommitGuard::publish`]); each `apply` releases that var's
//!    commit lock as it stamps the new version.
//!
//! Transactions with disjoint write sets therefore commit fully in parallel.
//! The **lock-all, then validate, then `fetch_add`** order is load-bearing
//! for opacity: any commit that invalidates a read after our validation must
//! have locked the var after we checked it, hence drawn its write version
//! after our `fetch_add`-free validation point, hence published with a
//! version above any reader's current horizon — readers catch it via the
//! version check (plus the locked-bit spin in the read path) and extend.
//!
//! ## The handler lane
//!
//! Commit/abort *handlers* and *participants* — the part of the system the
//! collections' doom protocol needs serialized — run under a dedicated
//! mutex, the [`lane_lock`] **handler lane**. Only transactions that
//! actually registered handlers or enlisted participants (and open-nested
//! commits that publish writes, which are the other source of
//! direct-mode-visible mutation) ever take it; a plain memory transaction
//! commits without touching any shared lock except its own write set's.
//!
//! Lock order (see `docs/PROTOCOL.md` for the full proof), in the
//! may-hold-while-acquiring sense: **handler lane → the collections'
//! lock-table stripes → var locks**, with the clock a wait-free `fetch_add`
//! drawn while var locks are held. Every lane taker — a top-level committer
//! with handlers or participants, and a writing open-nested commit —
//! acquires the lane *before* it locks its write set, and holds it through
//! its publish (and, at top level, through its handlers). Nobody ever waits
//! for the lane while holding a var lock, and var locks are only ever held
//! for bounded, non-blocking critical sections, so the lane-holder's direct
//! writes (which spin on var locks) always terminate.

use crate::metrics::{self, Total};
use crate::trace;
use crate::tvar::{AnyVar, VarId, MAX_VERSION};
use parking_lot::{Mutex, MutexGuard};
use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

static GLOBAL_CLOCK: AtomicU64 = AtomicU64::new(0);
static HANDLER_LANE: Mutex<()> = Mutex::new(());

/// Current value of the global version clock.
pub(crate) fn now() -> u64 {
    GLOBAL_CLOCK.load(Ordering::Acquire)
}

/// Draw a fresh, globally unique write version (atomic `fetch_add`).
///
/// Call only while holding the commit locks of every var about to be stamped
/// with it: a reader that observes a version above its horizon must be able
/// to rely on lock-then-validate to resynchronize.
///
/// # Panics
///
/// Past [`MAX_VERSION`], the largest version a cell word holds, rather
/// than wrap (2^52 commits).
pub(crate) fn fresh_version() -> u64 {
    let v = GLOBAL_CLOCK.fetch_add(1, Ordering::AcqRel) + 1;
    assert!(v <= MAX_VERSION, "the version clock is exhausted");
    v
}

/// Acquire the handler lane. Taken by commit/abort handler and participant
/// execution and by writing open-nested commits; never while holding any
/// var commit lock.
/// `txn` is the holding attempt's id, recorded on the trace lane-occupancy
/// events (enter after acquisition, exit on drop).
pub(crate) fn lane_lock(txn: u64) -> LaneGuard {
    metrics::tally(Total::LaneEntries);
    let inner = HANDLER_LANE.lock();
    trace::lane_enter(txn);
    LaneGuard { txn, _inner: inner }
}

/// RAII ownership of the handler lane; emits the trace lane-exit event when
/// released so `txtop` can compute lane occupancy.
pub(crate) struct LaneGuard {
    txn: u64,
    _inner: MutexGuard<'static, ()>,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        trace::lane_exit(self.txn);
    }
}

/// Spin until `var`'s commit lock is acquired, yielding so single-CPU hosts
/// make progress. Holders release in bounded time (publish or validation
/// failure), so this terminates.
pub(crate) fn lock_var_spin(var: &dyn AnyVar) {
    if var.try_lock_commit() {
        return;
    }
    metrics::tally(Total::VarLockSpins);
    trace::var_lock_spin(var.id());
    loop {
        std::hint::spin_loop();
        std::thread::yield_now();
        if var.try_lock_commit() {
            return;
        }
    }
}

/// Read validation against a var's version and commit-lock fields, loaded
/// as one word so a concurrent publish cannot slip between a version check
/// and a lock check. The word's reader count is not read, so a registered
/// reader never fails a validation.
///
/// Valid iff the version still matches the recorded one **and** the var is
/// not commit-locked. A committer validates through
/// [`CommitGuard::read_valid`] instead, which admits its own locks.
pub(crate) fn read_valid(var: &dyn AnyVar, recorded: u64) -> bool {
    var.stamp() == (recorded, false)
}

/// A var's committed version, waiting out any in-flight publish. Used by
/// timestamp extension, which holds no locks and therefore may spin.
pub(crate) fn stable_version(var: &dyn AnyVar) -> u64 {
    let (mut version, mut locked) = var.stamp();
    while locked {
        std::hint::spin_loop();
        std::thread::yield_now();
        (version, locked) = var.stamp();
    }
    version
}

/// A direct-mode (handler) write: lock the var, draw a fresh version, apply.
/// The apply releases the lock and leaves the outgoing value in `val` (see
/// [`AnyVar::apply`]). Callers hold the handler lane, never any var commit
/// lock, so the spin cannot deadlock.
pub(crate) fn publish_direct(var: &dyn AnyVar, val: &mut (dyn Any + Send + Sync)) {
    lock_var_spin(var);
    let wv = fresh_version();
    var.apply(val, wv, crate::epoch::publish_horizon());
}

/// Where a write-set entry's var and buffered value are kept: the frame's
/// typed log and the entry's place in it.
pub(crate) type Slot = (u32, u32);

/// A write set as a commit locks and publishes it, each entry found by its
/// [`Slot`].
pub(crate) trait WriteSet {
    /// The var of entry `slot`.
    fn var(&self, slot: Slot) -> &dyn AnyVar;
    /// Publish entry `slot`: [`AnyVar::apply`] its buffered value.
    fn apply(&mut self, slot: Slot, version: u64, horizon: u64);
}

/// Ownership of a write set's commit locks: phase one of the two-phase
/// commit. Dropping the guard before [`publish`](Self::publish) (validation
/// failure, doom) releases every lock with versions unchanged.
///
/// The guard *borrows* the write set from the committing frame, and its lock
/// order from a scratch list the frame reuses, so a commit attempt takes no
/// `Arc` refcount and, once the scratch has grown, allocates nothing.
pub(crate) struct CommitGuard<'a> {
    writes: &'a mut dyn WriteSet,
    /// The write set's `(id, slot)` pairs in `VarId` order.
    order: &'a [(VarId, Slot)],
    /// The write version once [`publish`](Self::publish) has drawn it,
    /// `u64::MAX` before: a var whose version is below it is still locked
    /// by this guard.
    version: u64,
}

impl<'a> CommitGuard<'a> {
    /// Acquire the commit locks of the entries `order` names in `writes`,
    /// sorting `order` by id first: `VarId` order is the globally consistent
    /// order that makes concurrent committers deadlock-free. An empty write
    /// set locks nothing.
    pub(crate) fn lock_write_set(
        writes: &'a mut dyn WriteSet,
        order: &'a mut [(VarId, Slot)],
    ) -> CommitGuard<'a> {
        order.sort_unstable_by_key(|&(id, _)| id);
        for &(_, slot) in order.iter() {
            lock_var_spin(writes.var(slot));
        }
        CommitGuard {
            writes,
            order,
            version: u64::MAX,
        }
    }

    /// Commit-time validation of a read: [`read_valid`], except that the
    /// var may be locked by this guard. The write set is searched only for
    /// a read var that is locked.
    pub(crate) fn read_valid(&self, var: &dyn AnyVar, recorded: u64) -> bool {
        let (version, locked) = var.stamp();
        version == recorded
            && (!locked
                || self
                    .order
                    .binary_search_by_key(&var.id(), |&(id, _)| id)
                    .is_ok())
    }

    /// Phase two: draw the write version and apply the write set, each
    /// `apply` releasing its var's lock; a read-only commit draws nothing.
    /// The reclamation horizon is sampled **once per commit** here — while
    /// snapshot readers are pinned, `min_pinned()` is an O(threads) slot
    /// scan, and paying it per published var would tax every writer with
    /// `O(write_set × threads)` for a single long-lived reader.
    pub(crate) fn publish(mut self) {
        if self.order.is_empty() {
            return;
        }
        self.version = fresh_version();
        let horizon = crate::epoch::publish_horizon();
        for &(_, slot) in self.order {
            self.writes.apply(slot, self.version, horizon);
        }
        self.order = &[];
    }
}

impl Drop for CommitGuard<'_> {
    fn drop(&mut self) {
        // Unwinding out of `publish`, a var already stamped with this
        // commit's version is released, and another committer may hold it
        // by now; releasing it again would hand that committer's lock to a
        // third. Every var still below the version is this guard's to
        // release. Before `publish` that is every var.
        for &(_, slot) in self.order {
            let v = self.writes.var(slot);
            if v.version() < self.version {
                v.unlock_commit();
            }
        }
    }
}

/// One write-set entry of a test's hand-built write set: a var and its
/// buffered value, at slot `(0, i)` for the `i`th entry.
#[cfg(test)]
pub(crate) type Write<'a> = (&'a dyn AnyVar, &'a mut (dyn Any + Send + Sync));

#[cfg(test)]
impl WriteSet for Vec<Write<'_>> {
    fn var(&self, (_, i): Slot) -> &dyn AnyVar {
        self[i as usize].0
    }
    fn apply(&mut self, (_, i): Slot, version: u64, horizon: u64) {
        let (var, val) = &mut self[i as usize];
        var.apply(&mut **val, version, horizon);
    }
}

/// The `(id, slot)` pairs a frame would list for `writes`.
#[cfg(test)]
pub(crate) fn order_of(writes: &[Write<'_>]) -> Vec<(VarId, Slot)> {
    writes
        .iter()
        .zip(0..)
        .map(|(w, i)| (w.0.id(), (0, i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tvar::TVar;
    use std::sync::atomic::AtomicBool;

    /// A var that sorts after every cell and whose publish, like a commit
    /// racing the unwind, locks `victim` once its lock is free and then
    /// panics.
    struct Hijack<'a> {
        victim: &'a dyn AnyVar,
        locked: AtomicBool,
    }

    impl AnyVar for Hijack<'_> {
        fn id(&self) -> VarId {
            VarId::MAX
        }
        fn stamp(&self) -> (u64, bool) {
            (0, self.locked.load(Ordering::Acquire))
        }
        fn try_lock_commit(&self) -> bool {
            !self.locked.swap(true, Ordering::AcqRel)
        }
        fn unlock_commit(&self) {
            assert!(self.locked.swap(false, Ordering::AcqRel));
        }
        fn apply(&self, _: &mut (dyn Any + Send + Sync), _: u64, _: u64) {
            assert!(self.victim.try_lock_commit(), "the victim is published");
            panic!("publish unwinds");
        }
    }

    #[test]
    fn an_unwinding_publish_releases_only_the_locks_it_still_holds() {
        let a = TVar::new(0u64);
        let victim = a.any();
        let b = Hijack {
            victim: &*victim,
            locked: AtomicBool::new(false),
        };
        let (mut va, mut vb) = (Some(1u64), Some(2u64));
        let mut writes: Vec<Write> = vec![(&*victim, &mut va), (&b, &mut vb)];
        let mut order = order_of(&writes);
        let guard = CommitGuard::lock_write_set(&mut writes, &mut order);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| guard.publish()));
        assert!(unwound.is_err());
        let (version, locked) = victim.stamp();
        assert!(version > 0, "the victim was published");
        assert!(locked, "the unwind released the other committer's lock");
        assert!(
            !b.locked.load(Ordering::Acquire),
            "the unpublished var stayed locked"
        );
        assert_eq!(va, Some(0), "the outgoing value moved into the write set");
        victim.unlock_commit();
        assert_eq!(a.read_committed(), 1);
    }

    #[test]
    fn a_guard_dropped_before_its_publish_releases_every_lock() {
        let (a, b) = (TVar::new(0u64), TVar::new(0u64));
        let (any_a, any_b) = (a.any(), b.any());
        let (mut va, mut vb) = (Some(1u64), Some(2u64));
        let mut writes: Vec<Write> = vec![(&*any_a, &mut va), (&*any_b, &mut vb)];
        let mut order = order_of(&writes);
        let guard = CommitGuard::lock_write_set(&mut writes, &mut order);
        assert!(guard.read_valid(&*any_a, 0), "own lock");
        assert!(!read_valid(&*any_a, 0), "another's lock");
        drop(guard);
        assert_eq!((any_a.stamp(), any_b.stamp()), ((0, false), (0, false)));
        assert_eq!((va, vb), (Some(1), Some(2)), "nothing was published");
    }
}
