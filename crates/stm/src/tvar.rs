//! Transactional variables.
//!
//! txlint: metrics — metrics-emitter argument spans here must not allocate
//! or format (TX014).
//!
//! A [`TCell<T>`] is a shared, versioned cell; a [`TVar<T>`] is a `TCell`
//! in an allocation of its own, while a structure with several vars per
//! object (a tree node) embeds its cells inline in one `Arc`-owned block.
//! All access from inside a transaction goes through `read` / `write`,
//! which log the access in the current nesting frame of the [`Txn`]. Values
//! are stored and buffered by clone; in practice `T` is either small and
//! `Copy`-like or an `Arc`-wrapped payload.
//!
//! Each cell's **versioned commit lock** (`vlock`) is the only copy of its
//! version: one atomic word holding `(version << 1) | locked`. Committers
//! acquire the lock bit (in `VarId` order across their write set), and
//! publishing stores the new version with the bit clear — so releasing the
//! lock and stamping the version are one atomic store, and validators read
//! version + lock state as one word. See `clock.rs` for the protocol.
//!
//! A cell's [`VarId`] is its address. Every read-set, write-set and
//! flattened-read entry is a [`VarRef`], which keeps the block holding the
//! cell alive, so no id is reused while a transaction can still compare it.

use crate::cost;
use crate::metrics::{self, Total};
use crate::txn::Txn;
use parking_lot::{Mutex, RwLock};
use std::any::Any;
use std::collections::BTreeMap;
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Upper bound on the per-var history chain. A snapshot pinned so far in the
/// past that its entry fell off the end takes the counted fallback path
/// instead; the bound is what keeps worst-case memory per var constant.
pub(crate) const MAX_CHAIN_DEPTH: usize = 8;

static LABELS: Mutex<BTreeMap<VarId, String>> = Mutex::new(BTreeMap::new());
/// Number of entries in [`LABELS`], changed only under its lock: a cell's
/// drop locks the table only while some var is labelled.
static LIVE_LABELS: AtomicUsize = AtomicUsize::new(0);

/// Look up a variable's label (see [`TVar::set_label`]), if it has one and
/// is still alive.
pub fn var_label(id: VarId) -> Option<String> {
    LABELS.lock().get(&id).cloned()
}

/// Number of labels, i.e. of labelled vars still alive (diagnostic).
pub fn label_count() -> usize {
    LABELS.lock().len()
}

/// Identifier of a [`TVar`] or [`TCell`]: the cell's address, so unique
/// among live vars. A cell's first word is its own commit lock, so a cell
/// nested inside another cell's value never shares its address. Once a var
/// drops, a new one may reuse its id; the simulator intersects read and
/// write sets by `VarId` only while the transactions holding them keep
/// their vars alive.
pub type VarId = u64;

/// Type-erased view of a cell used by read/write sets and the committer.
pub(crate) trait AnyVar: Send + Sync {
    fn id(&self) -> VarId;
    /// Raw `(version << 1) | locked` word, loaded once — the unit of
    /// commit-time validation.
    fn stamp(&self) -> u64;
    /// Committed version (the stamp without the lock bit).
    fn version(&self) -> u64 {
        self.stamp() >> 1
    }
    /// Try to acquire the commit lock; `false` if another committer holds it.
    fn try_lock_commit(&self) -> bool;
    /// Release the commit lock without publishing (failed commit).
    fn unlock_commit(&self);
    /// Publish a buffered value with the given write version, releasing the
    /// commit lock in the same store. The caller holds the commit lock.
    /// `val` must be the `T` of the underlying var (guaranteed by the logger).
    /// `horizon` is the chain-reclamation horizon for the publishing commit,
    /// sampled once per commit via [`crate::epoch::publish_horizon`] —
    /// `u64::MAX` means no snapshot reader is pinned and history maintenance
    /// can be skipped entirely.
    fn apply(&self, val: &(dyn Any + Send + Sync), version: u64, horizon: u64);
}

/// A type whose [`TCell`]s stay where they are while it is shared, so that
/// an `Arc<Self>` can pin them.
///
/// # Safety
///
/// Every `TCell` that a shared `&Self` reaches inside `Self`'s own bytes
/// must stay at its address, as that same cell, until `Self` drops. A plain
/// struct of `TCell` fields qualifies. A cell behind interior mutability
/// does not — in a `Mutex<Option<TCell<T>>>` field it can be replaced or
/// dropped while a transaction still refers to it.
pub unsafe trait CellOwner: Send + Sync + 'static {}

/// A transactional variable stored inline in a block that an [`Arc`] owns.
///
/// A `TCell` is a [`TVar`] without an allocation of its own: a structure
/// with several vars per object (a tree node's key, value, color and links)
/// embeds them as `TCell` fields of one [`CellOwner`] type and shares the
/// object as an `Arc`, so the object is one allocation however many vars it
/// holds. Each cell keeps its own [`VarId`], version and commit lock, so a
/// transaction conflicts on exactly what separate `TVar`s would give it.
///
/// Transactional access names the owner: [`read`](Self::read) and
/// [`write`](Self::write) take the `Arc` whose block holds the cell, and
/// the transaction keeps that `Arc` alive for as long as it logs the cell.
/// A `TCell` is not `Clone`; share its owner instead.
///
/// ```
/// use std::sync::Arc;
/// use stm::{atomic, CellOwner, TCell};
///
/// struct Point {
///     x: TCell<i64>,
///     y: TCell<i64>,
/// }
/// // SAFETY: `Point`'s cells are plain fields, never moved while shared.
/// unsafe impl CellOwner for Point {}
///
/// let p = Arc::new(Point { x: TCell::new(1), y: TCell::new(2) });
/// atomic(|tx| {
///     let x = p.x.read(tx, &p);
///     p.y.write(tx, &p, x + 10);
/// });
/// assert_eq!(p.y.read_committed(), 11);
/// assert_ne!(p.x.id(), p.y.id());
/// ```
// `repr(C)` puts `vlock` first: a cell's address is its own lock word, never
// that of a cell inside its value, which is what keeps ids unique.
#[repr(C)]
pub struct TCell<T> {
    /// `(version << 1) | locked` — see the module docs.
    vlock: AtomicU64,
    cell: RwLock<Head<T>>,
}

// SAFETY: the only cell a shared `&TCell<T>` reaches in its own bytes is
// itself (its value sits behind a lock private to this module), and moving
// or dropping it needs `&mut` or ownership, which no one has while an `Arc`
// shares it.
unsafe impl<T: Send + Sync + 'static> CellOwner for TCell<T> {}

/// The committed value and, behind one pointer, its history chain:
/// previously committed `(version, value)` pairs, newest first, forming a
/// *contiguous* suffix of this var's committed history ending just before
/// the head. Maintained only while snapshot readers are pinned (see
/// `epoch.rs`): allocated by a publish that sees a pin, freed by the next
/// publish that sees none; bounded by [`MAX_CHAIN_DEPTH`].
///
/// The contiguity invariant is what makes [`TCell::read_at`] sound:
/// every publish either pushes the outgoing head onto the chain or (when
/// no reader is pinned) frees the chain, so a chain entry `<= s` is
/// always the *latest* committed value at snapshot `s` — never a stale
/// value with skipped versions between it and `s`.
struct Head<T> {
    value: T,
    chain: Option<Box<Chain<T>>>,
}

struct Chain<T>(Vec<(u64, T)>);

/// A logged reference to a cell: the cell, and the `Arc` of the block that
/// holds it, which keeps the cell alive as long as the entry.
pub(crate) struct VarRef {
    _owner: Arc<dyn CellOwner>,
    var: NonNull<dyn AnyVar>,
}

// SAFETY: `_owner` is an `Arc` of a `Send + Sync` block (`CellOwner`
// requires both), and `var` is a shared reference into that block to a
// cell, which is `Send + Sync` (`AnyVar` requires both); `VarRef` hands out
// nothing but shared access to either.
unsafe impl Send for VarRef {}
// SAFETY: as for `Send`: both fields only give shared access to `Sync` data.
unsafe impl Sync for VarRef {}

impl VarRef {
    /// Pin `cell` through `owner`: the one place a logged entry is made.
    ///
    /// # Panics
    ///
    /// If `cell` does not lie inside `*owner`: then `owner` would not keep
    /// it alive, and the entry could outlive it.
    pub(crate) fn pin<T, O>(owner: &Arc<O>, cell: &TCell<T>) -> VarRef
    where
        T: Clone + Send + Sync + 'static,
        O: CellOwner,
    {
        let start = Arc::as_ptr(owner) as usize;
        let at = cell as *const TCell<T> as usize;
        assert!(
            at >= start && at + size_of::<TCell<T>>() <= start + size_of::<O>(),
            "TCell accessed through an Arc that does not contain it"
        );
        VarRef {
            _owner: Arc::clone(owner) as Arc<dyn CellOwner>,
            var: NonNull::from(cell as &dyn AnyVar),
        }
    }

    /// The pinned cell.
    pub(crate) fn get(&self) -> &dyn AnyVar {
        // SAFETY: `pin` asserted that `var` lies inside `*_owner`, which
        // this entry keeps alive and shared, and `CellOwner` keeps the cell
        // at its address, as that cell, for as long as it is shared.
        unsafe { self.var.as_ref() }
    }
}

impl<T> TCell<T> {
    /// Unique id of this variable among live vars: its address.
    pub fn id(&self) -> VarId {
        self as *const Self as usize as VarId
    }
}

impl<T: Clone + Send + Sync + 'static> TCell<T> {
    /// Create a cell with an initial committed value.
    pub fn new(value: T) -> Self {
        TCell {
            vlock: AtomicU64::new(0),
            cell: RwLock::new(Head { value, chain: None }),
        }
    }

    /// Transactional read, as [`TVar::read`]; `owner` is the `Arc` whose
    /// block holds this cell.
    ///
    /// # Panics
    ///
    /// If this cell does not lie inside `*owner` and the read is logged, as
    /// every first read of a cell in a transaction body is.
    #[must_use = "a read both yields the value and records a dependency; use `let _ =` when only the dependency is wanted"]
    pub fn read<O: CellOwner>(&self, tx: &mut Txn, owner: &Arc<O>) -> T {
        cost::add_cost(cost::MEM_ACCESS_COST);
        tx.read_var(self, owner)
    }

    /// Transactional write, as [`TVar::write`]; `owner` is the `Arc` whose
    /// block holds this cell.
    ///
    /// # Panics
    ///
    /// If this cell does not lie inside `*owner` and the write is logged,
    /// as every write in a transaction body is.
    pub fn write<O: CellOwner>(&self, tx: &mut Txn, owner: &Arc<O>, value: T) {
        cost::add_cost(cost::MEM_ACCESS_COST);
        tx.write_var(self, owner, value);
    }

    /// Read the committed value directly, outside any transaction, as
    /// [`TVar::read_committed`].
    #[must_use]
    pub fn read_committed(&self) -> T {
        self.committed_pair().1
    }

    pub(crate) fn committed_pair(&self) -> (u64, T) {
        let head = self.pair_at(u64::MAX);
        head.expect("no version is past u64::MAX")
    }

    /// Read the newest committed value at or below snapshot version `s`, or
    /// `None` if the chain has been truncated (or never maintained) past it —
    /// the caller then takes the counted validated-path fallback.
    pub(crate) fn read_at(&self, s: u64) -> Option<T> {
        self.pair_at(s).map(|(_, v)| v)
    }

    /// [`read_at`](Self::read_at) with the version of the value read. At
    /// `s = u64::MAX` it is the validated read of the committed head.
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
    /// `<= s`) — an inconsistent cut through one atomic write set (and a
    /// validated read would accept a value about to be replaced unnoticed).
    ///
    /// The only wait is the bounded spin when a publish is in flight *and*
    /// the committed head is still at or below `s`; every other path is one
    /// stamp load, one `RwLock` read of `cell`, and a stamp re-check.
    fn pair_at(&self, s: u64) -> Option<(u64, T)> {
        loop {
            let w = self.vlock.load(Ordering::Acquire);
            let g = self.cell.read();
            if w >> 1 > s {
                // Head and any publish in flight (versions are monotone) are
                // past `s`. A publish pushes the old head under the lock that
                // swaps it: the chain is contiguous, a reclaimed entry a miss.
                return g.chain.as_ref()?.0.iter().find(|e| e.0 <= s).cloned();
            }
            // Versions never repeat (the clock is a monotone fetch_add): an
            // unchanged stamp proves no publish swapped the value since.
            if w & 1 == 0 && self.vlock.load(Ordering::Acquire) == w {
                return Some((w >> 1, g.value.clone()));
            }
            // A publish in flight may publish `<= s` too: wait out the short
            // window (the committer releases by publishing or unwinding).
            drop(g);
            std::hint::spin_loop();
            std::thread::yield_now();
        }
    }
}

impl<T: Clone + Send + Sync + 'static> AnyVar for TCell<T> {
    fn id(&self) -> VarId {
        TCell::id(self)
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
        // We hold the lock bit: the word still names the outgoing version.
        let outgoing = self.vlock.load(Ordering::Relaxed) >> 1;
        let mut g = self.cell.write();
        let old = std::mem::replace(&mut g.value, v.clone());
        let reclaimed = if horizon != u64::MAX {
            // A snapshot may still need the outgoing head: push it under the
            // lock that swaps the head. The horizon is sampled once per
            // commit; a pin landing mid-batch is safe anyway, as its
            // stabilization loop (`epoch::pin`) puts this commit's version at
            // or below the pinned epoch. Then drop what no pin can reach:
            // entries older than the newest one at or below `horizon` (future
            // pins sample a clock past every version), and any past the bound.
            let h = &mut g.chain.get_or_insert_with(|| Box::new(Chain(Vec::new()))).0;
            h.insert(0, (outgoing, old));
            let before = h.len();
            if let Some(i) = h.iter().position(|e| e.0 <= horizon) {
                h.truncate(i + 1);
            }
            h.truncate(MAX_CHAIN_DEPTH);
            before - h.len()
        } else {
            // No snapshot pinned anywhere: free the chain. Keeping older
            // entries without this push would leave a version *gap* a later
            // snapshot could misread as the state at its version.
            g.chain.take().map_or(0, |c| c.0.len())
        };
        drop(g);
        metrics::tally_n(Total::ChainEntriesReclaimed, reclaimed as u64);
        // Stamp + release in one store.
        self.vlock.store(version << 1, Ordering::Release);
    }
}

impl<T> Drop for TCell<T> {
    fn drop(&mut self) {
        // A label set on this cell happened before its drop (the last
        // reference to it was released after), so the count includes it.
        if LIVE_LABELS.load(Ordering::Relaxed) != 0 {
            unlabel(self.id());
        }
    }
}

/// Remove a dropping var's label, if it has one, before another var can
/// take its address.
#[cold]
fn unlabel(id: VarId) {
    let mut labels = LABELS.lock();
    if labels.remove(&id).is_some() {
        LIVE_LABELS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A transactional shared variable holding a `T`: a [`TCell`] in an
/// allocation of its own.
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
    pub(crate) core: Arc<TCell<T>>,
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
            core: Arc::new(TCell::new(value)),
        }
    }

    /// Unique id of this variable among live vars.
    pub fn id(&self) -> VarId {
        self.core.id()
    }

    /// Label this variable for conflict attribution (the TAPE-style
    /// profiling of paper §6.3: identifying which shared locations cause
    /// lost work). [`var_label`] resolves it until the var drops.
    pub fn set_label(&self, label: impl Into<String>) {
        let mut labels = LABELS.lock();
        if labels.insert(self.id(), label.into()).is_none() {
            LIVE_LABELS.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Transactional read. Returns the transaction's own buffered value if it
    /// has written this var, otherwise a validated committed snapshot.
    #[must_use = "a read both yields the value and records a dependency; use `let _ =` when only the dependency is wanted"]
    pub fn read(&self, tx: &mut Txn) -> T {
        self.core.read(tx, &self.core)
    }

    /// Transactional write (buffered in the current frame's redo log until
    /// commit).
    pub fn write(&self, tx: &mut Txn, value: T) {
        self.core.write(tx, &self.core, value);
    }

    /// Read the committed value directly, outside any transaction.
    ///
    /// Single reads are trivially atomic (and wait out an in-flight publish);
    /// use a transaction for anything that must be consistent across multiple
    /// variables.
    #[must_use]
    pub fn read_committed(&self) -> T {
        self.core.read_committed()
    }

    /// Committed version stamp (diagnostic).
    pub fn version(&self) -> u64 {
        self.core.version()
    }

    /// Length of this var's multi-version history chain (diagnostic). Zero
    /// whenever no snapshot reader has been pinned across a recent publish;
    /// never exceeds the compiled-in chain depth bound.
    pub fn chain_len(&self) -> usize {
        let g = self.core.cell.read();
        g.chain.as_ref().map_or(0, |c| c.0.len())
    }

    pub(crate) fn committed_pair(&self) -> (u64, T) {
        self.core.committed_pair()
    }

    #[cfg(test)]
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
            .field("id", &self.id())
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
    fn validated_read_started_under_commit_lock_returns_the_new_pair() {
        // Started under the commit lock, the read waits the publish out.
        // Started just before it (old stamp loaded, then queued for the cell
        // the publish swaps under), it must re-check the stamp. Either way it
        // returns the new value with the new version, never a mixed pair.
        let v = TVar::new(1u64);
        let read = |v: TVar<u64>| std::thread::spawn(move || v.committed_pair());
        assert!(v.any().try_lock_commit(), "simulate a publish in flight");
        let reader = read(v.clone());
        std::thread::sleep(std::time::Duration::from_millis(50));
        v.any().apply(&2u64, 7, u64::MAX);
        assert_eq!(reader.join().unwrap(), (7, 2), "mixed or stale pair");
        let mut cell = v.core.cell.write();
        let reader = read(v.clone());
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(
            v.any().try_lock_commit(),
            "finish the publish as apply does"
        );
        cell.value = 3;
        drop(cell);
        v.core.vlock.store(9 << 1, Ordering::Release);
        assert_eq!(reader.join().unwrap(), (9, 3), "stamp not re-checked");
    }

    #[test]
    fn snapshot_below_head_reads_chain_while_another_thread_publishes() {
        // Pinned at S = 2 below the head at 4, reading while a publisher
        // that sees the pin (horizon 2) extends the chain: always 0.
        let v = TVar::new(0u64);
        v.any().apply(&1u64, 4, 2);
        let any = v.any();
        let publisher = std::thread::spawn(move || {
            for value in 3..=8u64 {
                assert!(any.try_lock_commit());
                any.apply(&value, value * 2, 2);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        });
        while !publisher.is_finished() {
            assert_eq!(v.core.read_at(2), Some(0), "latest(v, 2) is 0");
        }
        publisher.join().unwrap();
        assert_eq!(v.chain_len(), 7, "heads 0, 4, .., 14");
        assert_eq!(v.core.read_at(7), Some(3), "latest(v, 7) is version 6");
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

    struct Pair {
        a: TCell<u64>,
        b: TCell<u64>,
    }
    // SAFETY: two plain cell fields.
    unsafe impl CellOwner for Pair {}

    fn pair() -> Arc<Pair> {
        Arc::new(Pair {
            a: TCell::new(1),
            b: TCell::new(2),
        })
    }

    fn panics(f: impl FnOnce()) -> bool {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).is_err()
    }

    #[test]
    fn cells_are_read_and_written_through_their_owner() {
        let p = pair();
        crate::atomic(|tx| {
            let a = p.a.read(tx, &p);
            p.b.write(tx, &p, a + 10);
            assert_eq!(p.b.read(tx, &p), 11, "own write seen");
        });
        assert_eq!((p.a.read_committed(), p.b.read_committed()), (1, 11));
        assert_eq!(p.a.version(), 0);
        assert!(p.b.version() > 0);
        assert_ne!(p.a.id(), p.b.id());
    }

    #[test]
    fn a_cell_accessed_through_an_arc_that_does_not_hold_it_panics() {
        let (p, q) = (pair(), pair());
        let lone = TCell::new(0u64);
        let var = Arc::new(TCell::new(0u64));
        assert!(panics(|| crate::atomic(|tx| {
            let _ = p.a.read(tx, &q);
        })));
        assert!(panics(|| crate::atomic(|tx| p.b.write(tx, &q, 5))));
        assert!(panics(|| crate::atomic(|tx| {
            let _ = lone.read(tx, &var);
        })));
        assert!(panics(|| crate::atomic(|tx| var.write(tx, &p, 5))));
        assert_eq!(q.b.read_committed(), 2, "the foreign write never landed");
        assert_eq!(var.read_committed(), 0);
    }

    #[test]
    fn labels_fast_path_and_registration() {
        let v = TVar::new(0u8);
        // Whether or not another test registered a label, this id has none.
        assert_eq!(var_label(v.id()), None);
        v.set_label("counter");
        assert_eq!(var_label(v.id()).as_deref(), Some("counter"));
        let id = v.id();
        drop(v);
        assert_eq!(var_label(id), None, "a label dies with its var");
    }
}
