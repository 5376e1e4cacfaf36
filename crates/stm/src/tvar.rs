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
//! Each var's **versioned commit lock** (`vlock`) is the only copy of its
//! version: one atomic word holding `(version << 1) | locked`. Committers
//! acquire the lock bit (in `VarId` order across their write set), and
//! publishing stores the new version with the bit clear — so releasing the
//! lock and stamping the version are one atomic store, and validators read
//! version + lock state as one word. See `clock.rs` for the protocol.

use crate::cost;
use crate::metrics::{self, Total};
use crate::txn::Txn;
use parking_lot::{Mutex, RwLock};
use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Upper bound on the per-var history chain. A snapshot pinned so far in the
/// past that its entry fell off the end takes the counted fallback path
/// instead; the bound is what keeps worst-case memory per var constant.
pub(crate) const MAX_CHAIN_DEPTH: usize = 8;

static NEXT_VAR_ID: AtomicU64 = AtomicU64::new(1);
static LABELS: Mutex<BTreeMap<VarId, String>> = Mutex::new(BTreeMap::new());
/// Id-word bit of a labelled var: only those lock the label table to drop.
const LABELLED: u64 = 1 << 63;

/// Look up a variable's label (see [`TVar::set_label`]), if it has one and
/// is still alive.
pub fn var_label(id: VarId) -> Option<String> {
    LABELS.lock().get(&id).cloned()
}

/// Number of labels, i.e. of labelled vars still alive (diagnostic).
pub fn label_count() -> usize {
    LABELS.lock().len()
}

/// Globally unique identifier of a [`TVar`]. The simulator intersects
/// read/write sets by `VarId`.
pub type VarId = u64;

/// Type-erased view of a `TVar` used by read/write sets and the committer.
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

pub(crate) struct VarCore<T> {
    /// The var's [`VarId`], plus [`LABELLED`] once it has a label.
    id: AtomicU64,
    /// `(version << 1) | locked` — see the module docs.
    vlock: AtomicU64,
    cell: RwLock<Head<T>>,
}

/// The committed value and, behind one pointer, its history chain:
/// previously committed `(version, value)` pairs, newest first, forming a
/// *contiguous* suffix of this var's committed history ending just before
/// the head. Maintained only while snapshot readers are pinned (see
/// `epoch.rs`): allocated by a publish that sees a pin, freed by the next
/// publish that sees none; bounded by [`MAX_CHAIN_DEPTH`].
///
/// The contiguity invariant is what makes [`VarCore::read_at`] sound:
/// every publish either pushes the outgoing head onto the chain or (when
/// no reader is pinned) frees the chain, so a chain entry `<= s` is
/// always the *latest* committed value at snapshot `s` — never a stale
/// value with skipped versions between it and `s`.
struct Head<T> {
    value: T,
    chain: Option<Box<Chain<T>>>,
}

struct Chain<T>(Vec<(u64, T)>);

impl<T: Clone + Send + Sync + 'static> VarCore<T> {
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

impl<T: Clone + Send + Sync + 'static> AnyVar for VarCore<T> {
    fn id(&self) -> VarId {
        self.id.load(Ordering::Relaxed) & !LABELLED
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

impl<T> Drop for VarCore<T> {
    fn drop(&mut self) {
        let id = *self.id.get_mut();
        if id & LABELLED != 0 {
            LABELS.lock().remove(&(id & !LABELLED));
        }
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
                id: AtomicU64::new(NEXT_VAR_ID.fetch_add(1, Ordering::Relaxed)),
                vlock: AtomicU64::new(0),
                cell: RwLock::new(Head { value, chain: None }),
            }),
        }
    }

    /// Unique id of this variable.
    pub fn id(&self) -> VarId {
        self.core.id()
    }

    /// Label this variable for conflict attribution (the TAPE-style
    /// profiling of paper §6.3: identifying which shared locations cause
    /// lost work). [`var_label`] resolves it until the var drops.
    pub fn set_label(&self, label: impl Into<String>) {
        self.core.id.fetch_or(LABELLED, Ordering::Relaxed);
        LABELS.lock().insert(self.id(), label.into());
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
        self.committed_pair().1
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
        let head = self.core.pair_at(u64::MAX);
        head.expect("no version is past u64::MAX")
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
