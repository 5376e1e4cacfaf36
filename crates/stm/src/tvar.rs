//! Transactional variables.
//!
//! txlint: metrics — metrics-emitter argument spans here must not allocate
//! or format (TX014).
//!
//! A [`TVar<T>`] is a shared, versioned cell. All access from inside a
//! transaction goes through [`TVar::read`] / [`TVar::write`], which log the
//! access in the current nesting frame of the [`Txn`]. Values are stored and
//! buffered by clone; in practice `T` is either small and `Copy`-like or an
//! `Arc`-wrapped payload.
//!
//! Each var additionally carries a **versioned commit lock** (`vlock`): one
//! atomic word holding `(version << 1) | locked`. Committers acquire the lock
//! bit (in `VarId` order across their write set), and publishing a value
//! stores the new version with the bit clear — so releasing the lock and
//! stamping the version are a single atomic store, and validators read
//! version + lock state as one word. See `clock.rs` for the protocol.

use crate::cost;
use crate::metrics::{self, Total};
use crate::txn::Txn;
use parking_lot::{Mutex, RwLock};
use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on the per-var history chain. A snapshot pinned so far in the
/// past that its entry fell off the end takes the counted fallback path
/// instead; the bound is what keeps worst-case memory per var constant.
pub(crate) const MAX_CHAIN_DEPTH: usize = 8;

static NEXT_VAR_ID: AtomicU64 = AtomicU64::new(1);
static LABELS: Mutex<Option<HashMap<VarId, String>>> = Mutex::new(None);
/// Lock-free gate for the common no-label case: [`var_label`] sits on abort
/// paths, and most programs never label anything, so they should not take a
/// global mutex just to learn the table is empty.
static LABELS_USED: AtomicBool = AtomicBool::new(false);

/// Attach a human-readable label to a variable, for conflict attribution
/// (the TAPE-style profiling of paper §6.3: identifying which shared
/// locations cause lost work).
pub fn label_var(id: VarId, label: impl Into<String>) {
    // Publish the gate before the entry: a reader that sees the flag clear
    // may miss this label (it raced the registration), but a reader that
    // looks up after we return always takes the slow path.
    LABELS_USED.store(true, Ordering::Release);
    LABELS
        .lock()
        .get_or_insert_with(HashMap::new)
        .insert(id, label.into());
}

/// Look up a variable's label, if any. Lock-free when no label was ever
/// registered.
pub fn var_label(id: VarId) -> Option<String> {
    if !LABELS_USED.load(Ordering::Acquire) {
        return None;
    }
    LABELS.lock().as_ref().and_then(|m| m.get(&id).cloned())
}

/// Globally unique identifier of a [`TVar`]. The simulator intersects
/// read/write sets by `VarId`.
pub type VarId = u64;

/// Type-erased view of a `TVar` used by read/write sets and the committer.
pub(crate) trait AnyVar: Send + Sync {
    fn id(&self) -> VarId;
    /// Committed version stamp (ignores the lock bit).
    fn version(&self) -> u64;
    /// Raw `(version << 1) | locked` word, loaded once — the unit of
    /// commit-time validation.
    fn stamp(&self) -> u64;
    /// Try to acquire the commit lock; `false` if another committer holds it.
    fn try_lock_commit(&self) -> bool;
    /// Release the commit lock without publishing (failed commit).
    fn unlock_commit(&self);
    /// Publish a buffered value with the given write version, releasing the
    /// commit lock in the same store.
    /// `val` must be the `T` of the underlying var (guaranteed by the logger).
    /// `horizon` is the chain-reclamation horizon for the publishing commit,
    /// sampled once per commit via [`crate::epoch::publish_horizon`] —
    /// `u64::MAX` means no snapshot reader is pinned and history maintenance
    /// can be skipped entirely.
    fn apply(&self, val: &(dyn Any + Send + Sync), version: u64, horizon: u64);
}

pub(crate) struct VarCore<T> {
    id: VarId,
    /// `(version << 1) | locked` — see the module docs.
    vlock: AtomicU64,
    cell: RwLock<(u64, T)>,
    /// Multi-version history: previously committed `(version, value)` pairs,
    /// newest first, forming a *contiguous* suffix of this var's committed
    /// history ending just before `cell`. Maintained only while snapshot
    /// readers are pinned (see `epoch.rs`); bounded by [`MAX_CHAIN_DEPTH`].
    ///
    /// The contiguity invariant is what makes [`VarCore::read_at`] sound:
    /// every publish either pushes the outgoing head onto the chain or (when
    /// no reader is pinned) clears the chain, so a chain entry `<= s` is
    /// always the *latest* committed value at snapshot `s` — never a stale
    /// value with skipped versions between it and `s`.
    hist: Mutex<Vec<(u64, T)>>,
    /// Relaxed mirror of `!hist.is_empty()`, so the no-readers publish path
    /// pays one load instead of a mutex. Publishes to one var are serialized
    /// by its commit lock, whose release/acquire pair orders this flag.
    has_hist: AtomicBool,
}

impl<T: Clone + Send + Sync + 'static> VarCore<T> {
    /// Wait out an in-flight publish on this var (reads must not accept a
    /// value another committer is about to replace without noticing: the
    /// subsequent version check plus this spin is what keeps the transaction
    /// body's view opaque).
    fn await_unlocked(&self) {
        while self.vlock.load(Ordering::Acquire) & 1 != 0 {
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }

    /// Read the newest committed value at or below snapshot version `s`, or
    /// `None` if the chain has been truncated (or never maintained) past it —
    /// the caller then takes the counted validated-path fallback.
    ///
    /// The head check is gated on the versioned commit lock: accepting a
    /// head stamped `<= s` is sound **only** while the var is unlocked. A
    /// committer draws its write version with the clock `fetch_add` *after*
    /// locking its whole write set, so a commit that could still publish a
    /// version `<= s` drew it before our snapshot sampled the clock — and
    /// therefore still holds this var's lock. Skipping the lock check is the
    /// torn-read bug: a snapshot pinned between a committer's `fetch_add`
    /// and its last per-var apply would see already-applied vars at the new
    /// version (`<= s`) and unapplied vars at their old versions (also
    /// `<= s`) — an inconsistent cut through one atomic write set.
    ///
    /// The only wait is the bounded spin when a publish is in flight *and*
    /// the committed head is still at or below `s`; every other path is one
    /// stamp load, one `RwLock` read of `cell`, and a stamp re-check.
    pub(crate) fn read_at(&self, s: u64) -> Option<T> {
        loop {
            let w = self.vlock.load(Ordering::Acquire);
            if w & 1 == 0 {
                if w >> 1 <= s {
                    let g = self.cell.read();
                    // Re-check the stamp under the cell guard: a commit may
                    // have locked *and published* between the stamp load and
                    // the cell read. Versions never repeat (the clock is a
                    // monotone fetch_add), so stamp equality proves the pair
                    // under the guard is still the one the stamp described.
                    if self.vlock.load(Ordering::Acquire) == w {
                        return Some(g.1.clone());
                    }
                    continue;
                }
            } else {
                // A publish is in flight. If the committed head is already
                // past `s`, the in-flight version is provably past it too
                // (per-var versions are monotone), so the chain below stays
                // the right place to look. Otherwise the pending write may
                // be `<= s` — taking the head *or* the chain here could
                // serve a stale value as `latest(v, s)` — so wait out the
                // short publish window (the committer releases every lock
                // by publishing or unwinding, so this terminates).
                if self.cell.read().0 <= s {
                    std::hint::spin_loop();
                    std::thread::yield_now();
                    continue;
                }
            }
            // Head is newer than the snapshot: look in the chain. A publish
            // swaps the cell *while holding* the history lock, so having
            // seen the new head, the outgoing value is already in the chain
            // (or was deliberately reclaimed, in which case we miss —
            // counted, never silent).
            let h = self.hist.lock();
            return h.iter().find(|e| e.0 <= s).map(|e| e.1.clone());
        }
    }

    /// Current history-chain length (diagnostic; used by the reclamation
    /// stress tests to assert chains stay bounded).
    fn chain_len(&self) -> usize {
        self.hist.lock().len()
    }

    /// Drop chain entries no live pin can reach: everything strictly older
    /// than the newest entry at or below `horizon` (future pins sample a
    /// clock already past every committed version, so they never need the
    /// chain at all), plus anything beyond the depth bound. Returns the
    /// number of reclaimed entries.
    fn truncate_chain(h: &mut Vec<(u64, T)>, horizon: u64) -> usize {
        let before = h.len();
        if let Some(i) = h.iter().position(|e| e.0 <= horizon) {
            h.truncate(i + 1);
        }
        h.truncate(MAX_CHAIN_DEPTH);
        before - h.len()
    }
}

impl<T: Clone + Send + Sync + 'static> AnyVar for VarCore<T> {
    fn id(&self) -> VarId {
        self.id
    }

    fn version(&self) -> u64 {
        self.vlock.load(Ordering::Acquire) >> 1
    }

    fn stamp(&self) -> u64 {
        self.vlock.load(Ordering::Acquire)
    }

    fn try_lock_commit(&self) -> bool {
        let w = self.vlock.load(Ordering::Acquire);
        if w & 1 != 0 {
            return false;
        }
        self.vlock
            .compare_exchange(w, w | 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn unlock_commit(&self) {
        let w = self.vlock.load(Ordering::Acquire);
        debug_assert!(w & 1 != 0, "unlock_commit on an unlocked var");
        self.vlock.store(w & !1, Ordering::Release);
    }

    fn apply(&self, val: &(dyn Any + Send + Sync), version: u64, horizon: u64) {
        let v = val
            .downcast_ref::<T>()
            .expect("write-set entry type mismatch");
        if horizon != u64::MAX {
            // A snapshot somewhere may still need the outgoing head: push it
            // onto the chain. The history lock is held across the cell swap
            // so a snapshot reader that misses the old head in `cell` is
            // guaranteed to find it in the chain once it takes this lock.
            // The horizon was sampled once for the whole commit: a pin that
            // lands mid-batch is safe anyway, because its stabilization loop
            // (`epoch::pin`) guarantees this commit's version is at or below
            // the pinned epoch — the new head itself serves that snapshot.
            let mut h = self.hist.lock();
            {
                let mut g = self.cell.write();
                let old = std::mem::replace(&mut *g, (version, v.clone()));
                h.insert(0, old);
            }
            self.has_hist.store(true, Ordering::Relaxed);
            let reclaimed = Self::truncate_chain(&mut h, horizon);
            drop(h);
            metrics::tally_n(Total::ChainEntriesReclaimed, reclaimed as u64);
        } else {
            // No snapshot pinned anywhere: overwrite in place, as before the
            // multi-version chain existed. Any leftover chain must be cleared
            // — skipping a push while keeping older entries would leave a
            // version *gap*, and a later snapshot could then read a stale
            // entry as if it were the state at its version.
            if self.has_hist.load(Ordering::Relaxed) {
                let mut h = self.hist.lock();
                let reclaimed = h.len();
                h.clear();
                self.has_hist.store(false, Ordering::Relaxed);
                drop(h);
                metrics::tally_n(Total::ChainEntriesReclaimed, reclaimed as u64);
            }
            let mut g = self.cell.write();
            *g = (version, v.clone());
        }
        // Stamp + release in one store.
        self.vlock.store(version << 1, Ordering::Release);
    }
}

/// A transactional shared variable holding a `T`.
///
/// Cloning a `TVar` clones the *reference* (it is an `Arc` internally); both
/// clones name the same cell.
///
/// ```
/// use stm::{atomic, TVar};
/// let v = TVar::new(1);
/// atomic(|tx| { let x = v.read(tx); v.write(tx, x + 1); });
/// assert_eq!(v.read_committed(), 2);
/// ```
pub struct TVar<T> {
    pub(crate) core: Arc<VarCore<T>>,
}

impl<T> Clone for TVar<T> {
    fn clone(&self) -> Self {
        TVar {
            core: Arc::clone(&self.core),
        }
    }
}

impl<T: Clone + Send + Sync + 'static> TVar<T> {
    /// Create a new variable with an initial committed value.
    pub fn new(value: T) -> Self {
        TVar {
            core: Arc::new(VarCore {
                id: NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed),
                vlock: AtomicU64::new(0),
                cell: RwLock::new((0, value)),
                hist: Mutex::new(Vec::new()),
                has_hist: AtomicBool::new(false),
            }),
        }
    }

    /// Unique id of this variable.
    pub fn id(&self) -> VarId {
        self.core.id
    }

    /// Label this variable for conflict attribution (see [`label_var`]).
    pub fn set_label(&self, label: impl Into<String>) {
        label_var(self.core.id, label);
    }

    /// Transactional read. Returns the transaction's own buffered value if it
    /// has written this var, otherwise a validated committed snapshot.
    #[must_use = "a read both yields the value and records a dependency; use `let _ =` when only the dependency is wanted"]
    pub fn read(&self, tx: &mut Txn) -> T {
        cost::add_cost(cost::MEM_ACCESS_COST);
        tx.read_var(self)
    }

    /// Transactional write (buffered in the current frame's redo log until
    /// commit).
    pub fn write(&self, tx: &mut Txn, value: T) {
        cost::add_cost(cost::MEM_ACCESS_COST);
        tx.write_var(self, value);
    }

    /// Read the committed value directly, outside any transaction.
    ///
    /// Single reads are trivially atomic (and wait out an in-flight publish);
    /// use a transaction for anything that must be consistent across multiple
    /// variables.
    #[must_use]
    pub fn read_committed(&self) -> T {
        self.core.await_unlocked();
        self.core.cell.read().1.clone()
    }

    /// Committed version stamp (diagnostic).
    pub fn version(&self) -> u64 {
        self.core.version()
    }

    /// Length of this var's multi-version history chain (diagnostic). Zero
    /// whenever no snapshot reader has been pinned across a recent publish;
    /// never exceeds the compiled-in chain depth bound.
    pub fn chain_len(&self) -> usize {
        self.core.chain_len()
    }

    pub(crate) fn committed_pair(&self) -> (u64, T) {
        self.core.await_unlocked();
        let g = self.core.cell.read();
        (g.0, g.1.clone())
    }

    pub(crate) fn any(&self) -> Arc<dyn AnyVar> {
        self.core.clone()
    }
}

impl<T: Clone + Send + Sync + Default + 'static> Default for TVar<T> {
    fn default() -> Self {
        TVar::new(T::default())
    }
}

impl<T: std::fmt::Debug + Clone + Send + Sync + 'static> std::fmt::Debug for TVar<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (ver, val) = self.committed_pair();
        f.debug_struct("TVar")
            .field("id", &self.core.id)
            .field("version", &ver)
            .field("value", &val)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_var_has_version_zero() {
        let v = TVar::new(7u32);
        assert_eq!(v.version(), 0);
        assert_eq!(v.read_committed(), 7);
    }

    #[test]
    fn ids_unique_and_clone_shares_identity() {
        let a = TVar::new(0u8);
        let b = TVar::new(0u8);
        assert_ne!(a.id(), b.id());
        let a2 = a.clone();
        assert_eq!(a.id(), a2.id());
    }

    #[test]
    fn apply_updates_value_and_version() {
        let v = TVar::new(1i32);
        let any = v.any();
        any.apply(&42i32, 9, u64::MAX);
        assert_eq!(v.read_committed(), 42);
        assert_eq!(v.version(), 9);
    }

    #[test]
    fn commit_lock_roundtrip_preserves_version() {
        let v = TVar::new(5u8);
        let any = v.any();
        assert!(any.try_lock_commit());
        assert!(!any.try_lock_commit(), "lock is exclusive");
        assert_eq!(any.stamp() & 1, 1);
        assert_eq!(any.version(), 0, "version unchanged while locked");
        any.unlock_commit();
        assert_eq!(any.stamp(), 0);
        // A publish through apply releases and stamps in one store.
        assert!(any.try_lock_commit());
        any.apply(&9u8, 3, u64::MAX);
        assert_eq!(any.stamp(), 3 << 1);
        assert_eq!(v.read_committed(), 9);
    }

    #[test]
    fn read_at_waits_out_in_flight_publish_instead_of_tearing() {
        // Regression for the torn-snapshot race: a commit of {a, b} draws
        // its write version before applying vars one at a time, so a
        // snapshot pinned at s >= wv can catch `a` already applied while
        // `b` still holds its pre-commit value — both stamped <= s. The
        // read must wait out `b`'s in-flight publish (its commit lock is
        // the witness), never accept the stale head.
        let a = TVar::new(0i32);
        let b = TVar::new(0i32);
        let (any_a, any_b) = (a.any(), b.any());
        assert!(any_a.try_lock_commit());
        assert!(any_b.try_lock_commit());
        let wv = 5;
        any_a.apply(&1i32, wv, u64::MAX);
        assert_eq!(a.core.read_at(wv), Some(1), "applied var shows new value");
        let reader = {
            let core = Arc::clone(&b.core);
            std::thread::spawn(move || core.read_at(wv))
        };
        // Let the reader reach the spin window while `b` is still locked;
        // a torn read_at returns Some(0) here without waiting.
        std::thread::sleep(std::time::Duration::from_millis(50));
        any_b.apply(&2i32, wv, u64::MAX);
        assert_eq!(
            reader.join().unwrap(),
            Some(2),
            "snapshot saw a torn write set"
        );
    }

    #[test]
    fn read_at_serves_chain_without_waiting_when_head_is_newer() {
        // An in-flight publish only forces a wait when the committed head
        // is still at or below the snapshot: a head already newer proves
        // the pending version is newer too, so the chain answers at once.
        let v = TVar::new(0u32);
        let any = v.any();
        // horizon 0 retains the outgoing head on the chain: [(0, 0)].
        any.apply(&1u32, 4, 0);
        assert!(any.try_lock_commit(), "simulate a publish in flight");
        assert_eq!(v.core.read_at(3), Some(0), "chain hit, no spin");
        any.unlock_commit();
        assert_eq!(v.core.read_at(4), Some(1));
    }

    #[test]
    fn labels_fast_path_and_registration() {
        let v = TVar::new(0u8);
        // Whether or not another test registered a label, this id has none.
        assert_eq!(var_label(v.id()), None);
        v.set_label("counter");
        assert_eq!(var_label(v.id()).as_deref(), Some("counter"));
    }
}
