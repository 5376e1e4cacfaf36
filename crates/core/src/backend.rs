//! Backend traits: the "underlying Map/Queue instance" slot of the paper's
//! collection classes, split into explicit **layers**.
//!
//! `TransactionalMap` et al. are *wrappers*: "transactional collection
//! classes wrap existing data structures, without the need for custom
//! implementations or knowledge of data structure internals" (paper
//! abstract). These traits are the wrapper's only view of the wrapped
//! structure, and they mirror the two ways the wrapper ever touches it:
//!
//! 1. **Speculative reads** ([`MapReadOps`], [`SortedReadOps`],
//!    [`QueueReadOps`]) — body-side observations, performed after the
//!    appropriate semantic lock is taken. Read-only observations run as
//!    **flattened opens** (`Txn::open_read`, no child transaction): a TVar
//!    backend has each read stamp-validated inline — the same per-var check
//!    the open-nested commit would have made — while a boosted backend
//!    ignores the transaction entirely ([`MapReadOps::TRANSACTIONAL_READS`]
//!    `== false`), because isolation for it comes from the semantic locks
//!    alone and the validation sweep is vacuous. Observations that mutate
//!    (`pop_front`) still run inside a real `Txn::open`.
//! 2. **Direct applies** ([`MapApplyOps`], [`QueueApplyOps`]) — mutations,
//!    run from commit handlers in direct mode under the handler lane (or,
//!    for eager classes, from the body with logged compensation). A TVar
//!    backend publishes these through the direct-mode write path; a boosted
//!    backend mutates its own concurrent structure in place. They are also
//!    the undo surface: the eager map keeps one [`UndoOp`] per first
//!    in-place write in its transaction-local buffer, and its abort
//!    handler replays them in reverse through `insert`/`remove`. Buffered
//!    classes get undo for free (an abort discards the buffer), which is
//!    why only eagerly-applied mutations ever log.
//!
//! The umbrella aliases [`MapBackend`], [`SortedMapBackend`] and
//! [`QueueBackend`] are blanket-implemented from the layers, so a concrete
//! structure only implements the layer traits (via the `delegate_*_backend!`
//! macros below) and every collection keeps its single-bound signature.
//!
//! Two backend families implement the seam:
//!
//! * `Tx*` ([`txstruct::TxHashMap`], [`txstruct::SegmentedTxHashMap`],
//!   [`txstruct::TxTreeMap`], [`txstruct::TxVecDeque`]) — TVar-based,
//!   every operation threads the transaction; kept verbatim for the paper
//!   figures.
//! * **Boosted** ([`txstruct::BoostedHashMap`]) — a genuinely concurrent
//!   sharded hash map with no TVars on the hot path (the design point of
//!   transactional boosting: open-nested operations against a concurrent
//!   structure, isolation entirely from semantic locks plus commit/abort
//!   handlers). Its delegations drop the transaction on the floor.
//!
//! Backends are deliberately ignorant of the semantic lock tables: the
//! wrapper stripes its lock table by key hash (`locks::StripedTables`) and
//! serializes every committed mutation through the handler lane, so a
//! backend only ever sees the two surfaces above — no stripe, and no
//! stripe count, is visible at this interface. Wrapping the same backend
//! with 1 stripe or 16 yields identical committed histories.

use std::ops::Bound;
use stm::Txn;
use txstruct::{BoostedHashMap, SegmentedTxHashMap, TxHashMap, TxTreeMap, TxVecDeque};

// ----------------------------------------------------------------------
// Layer 1: speculative reads
// ----------------------------------------------------------------------

/// Body-side observation surface of an unordered map backend. Called inside
/// `Txn::open_read` (read-only flattened open) after the semantic lock
/// covering the observation is held (and from handlers in direct mode,
/// where `open_read` is a pass-through).
pub trait MapReadOps<K, V>: Send + Sync + 'static {
    /// Whether this backend's reads go through transactional memory.
    ///
    /// `true` (the default, and the only sound choice for any backend that
    /// touches a `TVar`) means a read-only observation must be validated —
    /// the collections run it under [`Txn::open_read`], which stamp-checks
    /// every var the body read. `false` declares a **boosted** backend:
    /// reads never touch a `TVar`, so under a held semantic lock they can be
    /// served straight from the concurrent structure with nothing to
    /// validate. A custom backend must only set this to `false` if its read
    /// methods are linearizable on their own; declaring it falsely turns
    /// flattened opens into unvalidated dirty reads.
    const TRANSACTIONAL_READS: bool = true;
    /// Look up a key.
    #[must_use]
    fn get(&self, tx: &mut Txn, key: &K) -> Option<V>;
    /// Whether a key is present.
    #[must_use]
    fn contains_key(&self, tx: &mut Txn, key: &K) -> bool;
    /// Number of entries.
    #[must_use]
    fn len(&self, tx: &mut Txn) -> usize;
    /// Whether empty.
    #[must_use]
    fn is_empty(&self, tx: &mut Txn) -> bool {
        self.len(tx) == 0
    }
    /// Snapshot of all keys (arbitrary order): what a map enumeration
    /// visits, each key's value read again by `get`.
    #[must_use]
    fn keys(&self, tx: &mut Txn) -> Vec<K>;
}

/// Body-side observation surface of an ordered map backend (the stepwise
/// iteration and endpoint primitives of `TransactionalSortedMap`).
pub trait SortedReadOps<K, V>: MapReadOps<K, V> {
    /// Smallest entry.
    #[must_use]
    fn first_entry(&self, tx: &mut Txn) -> Option<(K, V)>;
    /// Largest entry.
    #[must_use]
    fn last_entry(&self, tx: &mut Txn) -> Option<(K, V)>;
    /// Smallest entry with key `>= key`.
    #[must_use]
    fn ceiling_entry(&self, tx: &mut Txn, key: &K) -> Option<(K, V)>;
    /// Largest entry with key `<= key`.
    #[must_use]
    fn floor_entry(&self, tx: &mut Txn, key: &K) -> Option<(K, V)>;
    /// Smallest entry with key `> key` (the stepwise iteration primitive).
    #[must_use]
    fn next_entry_after(&self, tx: &mut Txn, key: &K) -> Option<(K, V)>;
    /// Largest entry with key `< key`.
    #[must_use]
    fn prev_entry_before(&self, tx: &mut Txn, key: &K) -> Option<(K, V)>;
    /// Entries within bounds, in key order.
    #[must_use]
    fn range_entries(&self, tx: &mut Txn, lower: Bound<&K>, upper: Bound<&K>) -> Vec<(K, V)>;
}

/// Body-side observation surface of a FIFO backend.
pub trait QueueReadOps<T>: Send + Sync + 'static {
    /// See [`MapReadOps::TRANSACTIONAL_READS`] — same contract, FIFO seam.
    const TRANSACTIONAL_READS: bool = true;
    /// Front element without removal.
    #[must_use]
    fn peek_front(&self, tx: &mut Txn) -> Option<T>;
    /// Number of elements.
    #[must_use]
    fn len(&self, tx: &mut Txn) -> usize;
    /// Whether empty.
    #[must_use]
    fn is_empty(&self, tx: &mut Txn) -> bool {
        self.len(tx) == 0
    }
}

// ----------------------------------------------------------------------
// Layer 2: direct applies
// ----------------------------------------------------------------------

/// Handler-side mutation surface of an unordered map backend: run from
/// commit handlers in direct mode under the handler lane, or eagerly from
/// the body with a logged [`UndoOp`] per first write (txlint TX011).
pub trait MapApplyOps<K, V>: MapReadOps<K, V> {
    /// Insert or replace; returns the previous value.
    #[must_use]
    fn insert(&self, tx: &mut Txn, key: K, value: V) -> Option<V>;
    /// Remove a key; returns the previous value.
    #[must_use]
    fn remove(&self, tx: &mut Txn, key: &K) -> Option<V>;
}

/// Handler-side mutation surface of a FIFO backend. `push_front` is the
/// queue's undo surface: it returns a consumed item for abort compensation.
pub trait QueueApplyOps<T>: QueueReadOps<T> {
    /// Enqueue at the back.
    fn push_back(&self, tx: &mut Txn, item: T);
    /// Return an item to the front (abort compensation).
    fn push_front(&self, tx: &mut Txn, item: T);
    /// Dequeue from the front.
    #[must_use]
    fn pop_front(&self, tx: &mut Txn) -> Option<T>;
}

/// One logged compensation entry for an eagerly-applied map mutation: what
/// to do on abort to restore the committed state the mutation clobbered.
/// Only the *first* in-place write of a key needs an entry; later writes
/// are undone by the same restore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UndoOp<K, V> {
    /// The key held this value before the first in-place update.
    Restore(K, V),
    /// The key was absent before the first in-place insert.
    Delete(K),
}

// ----------------------------------------------------------------------
// Umbrella aliases (blanket-implemented; collections bound on these)
// ----------------------------------------------------------------------

/// An unordered map usable as the committed store of a `TransactionalMap`:
/// the read and apply layers combined. Blanket-implemented — concrete
/// backends implement the layer traits only.
pub trait MapBackend<K, V>: MapApplyOps<K, V> {}

impl<B, K, V> MapBackend<K, V> for B where B: MapApplyOps<K, V> {}

/// An ordered map usable as the committed store of a
/// `TransactionalSortedMap`: the map layers plus the ordered read surface.
pub trait SortedMapBackend<K, V>: MapBackend<K, V> + SortedReadOps<K, V> {}

impl<B, K, V> SortedMapBackend<K, V> for B where B: MapBackend<K, V> + SortedReadOps<K, V> {}

/// A FIFO usable as the committed store of a `TransactionalQueue`.
pub trait QueueBackend<T>: QueueApplyOps<T> {}

impl<B, T> QueueBackend<T> for B where B: QueueApplyOps<T> {}

// ----------------------------------------------------------------------
// Declarative delegation: one line per (structure, seam) pair
// ----------------------------------------------------------------------

/// Implement the map layers ([`MapReadOps`] + [`MapApplyOps`]) for a
/// concrete structure by delegating each operation to the inherent
/// method of the same name.
///
/// The leading mode token says how the transaction is threaded:
/// * `tx` — the structure is transactional (TVar-based); every delegation
///   passes `tx` through.
/// * `direct` — the structure is a boosted concurrent map; the transaction
///   is discarded, because the structure's own synchronization (shard
///   locks) is all it needs and isolation comes from the semantic layer.
macro_rules! delegate_map_backend {
    ($mode:tt $backend:ident, K: [$($kb:tt)*], V: [$($vb:tt)*]) => {
        impl<K, V> MapReadOps<K, V> for $backend<K, V>
        where
            K: $($kb)* + Send + Sync + 'static,
            V: $($vb)* + Send + Sync + 'static,
        {
            const TRANSACTIONAL_READS: bool = delegate_map_backend!(@treads $mode);
            fn get(&self, tx: &mut Txn, key: &K) -> Option<V> {
                delegate_map_backend!(@call $mode, $backend::get, self, tx, key)
            }
            fn contains_key(&self, tx: &mut Txn, key: &K) -> bool {
                delegate_map_backend!(@call $mode, $backend::contains_key, self, tx, key)
            }
            fn len(&self, tx: &mut Txn) -> usize {
                delegate_map_backend!(@call $mode, $backend::len, self, tx)
            }
            fn keys(&self, tx: &mut Txn) -> Vec<K> {
                delegate_map_backend!(@call $mode, $backend::keys, self, tx)
            }
        }
        impl<K, V> MapApplyOps<K, V> for $backend<K, V>
        where
            K: $($kb)* + Send + Sync + 'static,
            V: $($vb)* + Send + Sync + 'static,
        {
            fn insert(&self, tx: &mut Txn, key: K, value: V) -> Option<V> {
                delegate_map_backend!(@call $mode, $backend::insert, self, tx, key, value)
            }
            fn remove(&self, tx: &mut Txn, key: &K) -> Option<V> {
                delegate_map_backend!(@call $mode, $backend::remove, self, tx, key)
            }
        }
    };
    (@treads tx) => {
        true
    };
    (@treads direct) => {
        false
    };
    (@call tx, $f:path, $self:expr, $tx:expr $(, $arg:expr)*) => {
        $f($self, $tx $(, $arg)*)
    };
    (@call direct, $f:path, $self:expr, $tx:expr $(, $arg:expr)*) => {{
        let _ = $tx;
        $f($self $(, $arg)*)
    }};
}

/// Implement [`SortedReadOps`] by delegation; same mode tokens as
/// [`delegate_map_backend!`].
macro_rules! delegate_sorted_backend {
    ($mode:tt $backend:ident, K: [$($kb:tt)*], V: [$($vb:tt)*]) => {
        impl<K, V> SortedReadOps<K, V> for $backend<K, V>
        where
            K: $($kb)* + Send + Sync + 'static,
            V: $($vb)* + Send + Sync + 'static,
        {
            fn first_entry(&self, tx: &mut Txn) -> Option<(K, V)> {
                delegate_map_backend!(@call $mode, $backend::first_entry, self, tx)
            }
            fn last_entry(&self, tx: &mut Txn) -> Option<(K, V)> {
                delegate_map_backend!(@call $mode, $backend::last_entry, self, tx)
            }
            fn ceiling_entry(&self, tx: &mut Txn, key: &K) -> Option<(K, V)> {
                delegate_map_backend!(@call $mode, $backend::ceiling_entry, self, tx, key)
            }
            fn floor_entry(&self, tx: &mut Txn, key: &K) -> Option<(K, V)> {
                delegate_map_backend!(@call $mode, $backend::floor_entry, self, tx, key)
            }
            fn next_entry_after(&self, tx: &mut Txn, key: &K) -> Option<(K, V)> {
                delegate_map_backend!(@call $mode, $backend::next_entry_after, self, tx, key)
            }
            fn prev_entry_before(&self, tx: &mut Txn, key: &K) -> Option<(K, V)> {
                delegate_map_backend!(@call $mode, $backend::prev_entry_before, self, tx, key)
            }
            fn range_entries(
                &self,
                tx: &mut Txn,
                lower: Bound<&K>,
                upper: Bound<&K>,
            ) -> Vec<(K, V)> {
                delegate_map_backend!(@call $mode, $backend::range_entries, self, tx, lower, upper)
            }
        }
    };
}

/// Implement the queue layers ([`QueueReadOps`] + [`QueueApplyOps`]) by
/// delegation; same mode tokens as [`delegate_map_backend!`].
macro_rules! delegate_queue_backend {
    ($mode:tt $backend:ident, T: [$($tb:tt)*]) => {
        impl<T> QueueReadOps<T> for $backend<T>
        where
            T: $($tb)* + Send + Sync + 'static,
        {
            const TRANSACTIONAL_READS: bool = delegate_map_backend!(@treads $mode);
            fn peek_front(&self, tx: &mut Txn) -> Option<T> {
                delegate_map_backend!(@call $mode, $backend::peek_front, self, tx)
            }
            fn len(&self, tx: &mut Txn) -> usize {
                delegate_map_backend!(@call $mode, $backend::len, self, tx)
            }
        }
        impl<T> QueueApplyOps<T> for $backend<T>
        where
            T: $($tb)* + Send + Sync + 'static,
        {
            fn push_back(&self, tx: &mut Txn, item: T) {
                delegate_map_backend!(@call $mode, $backend::push_back, self, tx, item)
            }
            fn push_front(&self, tx: &mut Txn, item: T) {
                delegate_map_backend!(@call $mode, $backend::push_front, self, tx, item)
            }
            fn pop_front(&self, tx: &mut Txn) -> Option<T> {
                delegate_map_backend!(@call $mode, $backend::pop_front, self, tx)
            }
        }
    };
}

// The TVar family: transaction threaded through every operation.
delegate_map_backend!(tx TxHashMap, K: [Clone + Eq + std::hash::Hash], V: [Clone]);
delegate_map_backend!(tx SegmentedTxHashMap, K: [Clone + Eq + std::hash::Hash], V: [Clone]);
delegate_map_backend!(tx TxTreeMap, K: [Clone + Ord], V: [Clone]);
delegate_sorted_backend!(tx TxTreeMap, K: [Clone + Ord], V: [Clone]);
delegate_queue_backend!(tx TxVecDeque, T: [Clone]);

// The boosted family: the transaction is ignored — shard mutexes order the
// physical accesses, semantic locks order the logical ones.
delegate_map_backend!(direct BoostedHashMap, K: [Clone + Eq + std::hash::Hash], V: [Clone]);
