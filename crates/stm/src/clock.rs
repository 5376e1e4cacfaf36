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
//!    [`read_valid`] — failing fast (no spinning) if a read-set var is locked
//!    by another committer, which both avoids hold-and-wait cycles between
//!    committers and is almost always the right call (a held lock means the
//!    version is about to change);
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
//! Commit/abort *handlers* — the part of the system the collections' doom
//! protocol needs serialized — run under a dedicated mutex, the [`lane_lock`]
//! **handler lane**. Only transactions that actually registered handlers (and
//! open-nested commits that publish writes, which are the other source of
//! direct-mode-visible mutation) ever take it; a plain memory transaction
//! commits without touching any shared lock except its own write set's.
//!
//! Lock order (see `docs/PROTOCOL.md` for the full proof):
//! **var locks → clock → handler lane → table mutex**, with the release
//! discipline that a top-level committer fully releases its var locks
//! (publishing is what releases them) *before* acquiring the lane, and a
//! writing open-nested commit acquires the lane *before* its var locks.
//! Nobody ever waits for the lane while holding a var lock, and var locks
//! are only ever held for bounded, non-blocking critical sections, so the
//! lane-holder's direct writes (which spin on var locks) always terminate.

use crate::metrics::{self, Total};
use crate::trace;
use crate::tvar::AnyVar;
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
pub(crate) fn fresh_version() -> u64 {
    GLOBAL_CLOCK.fetch_add(1, Ordering::AcqRel) + 1
}

/// Acquire the handler lane. Taken by commit/abort handler execution and by
/// writing open-nested commits; never while holding any var commit lock.
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

/// Commit-time read validation against a var's `(version, locked)` stamp,
/// loaded as one word so a concurrent publish cannot slip between a version
/// check and a lock check.
///
/// Valid iff the version still matches the recorded one **and** the var is
/// not commit-locked by another transaction. `locked_by_self` is true when
/// the var is in the caller's own (already locked) write set.
pub(crate) fn read_valid(var: &dyn AnyVar, recorded: u64, locked_by_self: bool) -> bool {
    let stamp = var.stamp();
    (stamp >> 1) == recorded && (stamp & 1 == 0 || locked_by_self)
}

/// A var's committed version, waiting out any in-flight publish. Used by
/// timestamp extension, which holds no locks and therefore may spin.
pub(crate) fn stable_version(var: &dyn AnyVar) -> u64 {
    let mut stamp = var.stamp();
    while stamp & 1 != 0 {
        std::hint::spin_loop();
        std::thread::yield_now();
        stamp = var.stamp();
    }
    stamp >> 1
}

/// A direct-mode (handler) write: lock the var, draw a fresh version, apply.
/// The apply releases the lock. Callers hold the handler lane, never any var
/// commit lock, so the spin cannot deadlock.
pub(crate) fn publish_direct(var: &dyn AnyVar, val: &(dyn Any + Send + Sync)) {
    lock_var_spin(var);
    let wv = fresh_version();
    var.apply(val, wv, crate::epoch::publish_horizon());
}

/// Ownership of a write set's commit locks: phase one of the two-phase
/// commit. Dropping the guard before [`publish`](Self::publish) (validation
/// failure, doom) releases every lock with versions unchanged.
///
/// The guard *borrows* the write set's vars from the committing frame — the
/// frame outlives every commit attempt, so taking an `Arc` refcount per var
/// per attempt would be pure overhead on the commit hot path.
pub(crate) struct CommitGuard<'a> {
    locked: Vec<&'a dyn AnyVar>,
    armed: bool,
}

impl<'a> CommitGuard<'a> {
    /// Acquire the commit locks of `vars` in `VarId` order (the globally
    /// consistent order that makes concurrent committers deadlock-free).
    pub(crate) fn lock_write_set(mut vars: Vec<&'a dyn AnyVar>) -> CommitGuard<'a> {
        vars.sort_unstable_by_key(|v| v.id());
        for v in &vars {
            lock_var_spin(*v);
        }
        CommitGuard {
            locked: vars,
            armed: true,
        }
    }

    /// Phase two: draw the write version and apply the write set.
    /// `apply_all` must stamp every locked var with the version it is given
    /// (each `apply` releases that var's lock) and thread the horizon into
    /// every `apply`. The reclamation horizon is sampled **once per commit**
    /// here — while snapshot readers are pinned, `min_pinned()` is an
    /// O(threads) slot scan, and paying it per published var would tax every
    /// writer with `O(write_set × threads)` for a single long-lived reader.
    pub(crate) fn publish(mut self, apply_all: impl FnOnce(u64, u64)) {
        let wv = fresh_version();
        let horizon = crate::epoch::publish_horizon();
        apply_all(wv, horizon);
        self.armed = false;
    }
}

impl Drop for CommitGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            for v in &self.locked {
                v.unlock_commit();
            }
        }
    }
}
