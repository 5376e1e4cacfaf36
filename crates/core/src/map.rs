//! `TransactionalMap` — semantic concurrency control for the `Map` abstract
//! data type (paper §3.1).
//!
//! This file carries the semantic-tables marker (txlint TX007): stripe
//! mutexes are acquired exclusively through the ordered-acquisition surface
//! of `locks::StripedTables`, never by indexing a stripe array directly.
//!
//! # Protocol
//!
//! Following the paper's three-step recipe (§2.4):
//!
//! 1. **Take semantic locks on read operations.** `get`/`contains_key` take a
//!    key lock on their argument; `size` takes the size lock; the iterator
//!    takes key locks on returned keys and the size lock once exhausted
//!    (Table 2). Lock acquisition is a short critical section on one stripe
//!    of the instance's striped lock table (point locks live in the global
//!    stripe) — and repeat acquisitions by the same transaction are
//!    short-circuited by the kernel's txn-local lock cache — after which the
//!    committed value is read as a **flattened open** (`Txn::open_read`:
//!    validated exactly like an open-nested child, with no child
//!    transaction), so the parent carries *no memory dependency* on the
//!    underlying structure.
//! 2. **Check for semantic conflicts while writing during commit.** Writes
//!    (`put`/`remove`) are buffered in transaction-local state (`storeBuffer`,
//!    `delta` — Table 3). The commit handler applies the buffer to the
//!    underlying map and **dooms** every other transaction holding a
//!    conflicting key/size lock (program-directed abort).
//! 3. **Clear semantic locks on abort and commit.** Both handlers release the
//!    transaction's locks and discard its local state; the abort handler is
//!    the compensating transaction for the open-nested lock acquisitions.
//!
//! # Why lock-then-read is sound under striping
//!
//! A reader takes its key lock *before* reading the committed value; a
//! committing writer applies its changes and *then* scans lockers, with the
//! per-key apply and the doom-scan for that key under one hold of the
//! stripe the key hashes to (and all handler execution serialized by the
//! stm crate's handler lane). If the reader saw the old value, its lock was
//! in the stripe before the writer's scan, so the writer dooms it — and the
//! doom lands, because a handler-bearing reader's point of no return sits
//! inside its own lane hold, which cannot overlap the writer's. If the
//! reader's lock arrived after the scan, the stripe-mutex ordering means
//! the apply already happened, so its open-nested read validates against
//! the fully applied new value — either way the reader is serializable.
//! Size/empty observers take their locks in the global stripe, which the
//! writer's handler enters only **after** applying every buffered write, so
//! the same two-case argument holds for them against the whole commit. See
//! `docs/PROTOCOL.md` for the full argument under the sharded commit path.

// txlint: semantic-tables
// txlint: fast-path
use crate::backend::{MapBackend, MapReadOps};
use crate::conflict_graph::{edge, op, ConflictGraph, Overlap};
use crate::kernel::{ClassTables, KeyedClass, SemanticClass, SemanticCore};
use crate::locks::{GlobalStripe, ObsMode, SemanticStats, UpdateEffect, DEFAULT_STRIPES};
use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::marker::PhantomData;
use stm::hash::{StripeMap, StripeSet};
use stm::Txn;
use txstruct::{BoostedHashMap, TxHashMap};

// txlint: conflict-graph
/// Paper Tables 1–2 as a declared conflict graph: the map's operations,
/// the modes they observe, the effects they publish, and the conflicting
/// pairs. The lock modes the class dispatches with are *synthesized* from
/// this declaration ([`SemanticCore::new`] validates it against the
/// dispatch matrix; txlint TX010 checks it lexically).
pub static MAP_CONFLICT_GRAPH: ConflictGraph<'static> = ConflictGraph {
    class: "map",
    ops: &[
        op("get", &[ObsMode::Key], &[]),
        op(
            "put",
            &[ObsMode::Key],
            &[
                UpdateEffect::KeyWrite,
                UpdateEffect::SizeChange,
                UpdateEffect::ZeroCross,
            ],
        ),
        op(
            "remove",
            &[ObsMode::Key],
            &[
                UpdateEffect::KeyWrite,
                UpdateEffect::SizeChange,
                UpdateEffect::ZeroCross,
            ],
        ),
        op(
            "put_blind",
            &[],
            &[
                UpdateEffect::KeyWrite,
                UpdateEffect::SizeChange,
                UpdateEffect::ZeroCross,
            ],
        ),
        op("size", &[ObsMode::Size], &[]),
        op("is_empty_primitive", &[ObsMode::Empty], &[]),
        op("iter", &[ObsMode::Key, ObsMode::Size], &[]),
    ],
    edges: &[
        // get/put/remove/iter observe keys; any key write to the same key
        // invalidates them (Table 1: same-key cells conflict, distinct-key
        // cells commute).
        edge(
            "get",
            "put",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "get",
            "remove",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "get",
            "put_blind",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "put",
            "put",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "put",
            "remove",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "put",
            "put_blind",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "remove",
            "put",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "remove",
            "remove",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "remove",
            "put_blind",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "iter",
            "put",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "iter",
            "remove",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "iter",
            "put_blind",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        // size() (and exhausted iteration) is doomed by any size change —
        // but NOT by a value-replacing put (KeyWrite without SizeChange).
        edge(
            "size",
            "put",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        edge(
            "size",
            "remove",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        edge(
            "size",
            "put_blind",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        edge(
            "iter",
            "put",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        edge(
            "iter",
            "remove",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        edge(
            "iter",
            "put_blind",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        // isEmpty as a primitive (§5.1): only zero-crossings conflict.
        edge(
            "is_empty_primitive",
            "put",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        edge(
            "is_empty_primitive",
            "remove",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        edge(
            "is_empty_primitive",
            "put_blind",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
    ],
};

/// A buffered write in the transaction's store buffer (the paper's "special
/// value for removed keys" is the `Remove` variant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BufWrite<V> {
    /// Pending insert/replace.
    Put(V),
    /// Pending removal.
    Remove,
}

impl<V> BufWrite<V> {
    /// The value the write leaves visible: `None` for a removal.
    pub(crate) fn value(&self) -> Option<&V> {
        match self {
            BufWrite::Put(v) => Some(v),
            BufWrite::Remove => None,
        }
    }
}

/// One store-buffer entry: a buffered write plus what the transaction knows
/// of the key's committed presence. A *blind* write (`put_discard` /
/// `remove_discard`, paper §5.1) buffers without reading the key, so its
/// entry starts out blind (`committed == None`): its effect on the size
/// stays unknown until a size or emptiness observation resolves it.
pub(crate) struct Pending<V> {
    pub write: BufWrite<V>,
    /// Whether the key is committed, as read under its key lock (so the
    /// answer holds for every attempt that commits); `None` while blind.
    committed: Option<bool>,
}

impl<V> Pending<V> {
    /// This entry's share of the buffer's tallies: its size delta (known
    /// once its committed presence is) and whether it is still blind.
    fn tally(&self) -> (isize, usize) {
        match self.committed {
            Some(was) => (
                isize::from(self.write.value().is_some()) - isize::from(was),
                0,
            ),
            None => (0, 1),
        }
    }
}

/// Per-transaction local state (paper Table 3: `keyLocks`, `storeBuffer`,
/// `delta`). Lives in the transaction's kernel slot rather than in a
/// thread-local — the same encapsulation, robust to handler execution
/// context.
pub(crate) struct MapLocal<K, V> {
    pub key_locks: StripeSet<K>,
    pub store_buffer: StripeMap<K, Pending<V>>,
    /// Size delta of the buffered writes: the sum of the entries' deltas.
    delta: isize,
    /// Entries still blind, so that a size observation with none left
    /// scans nothing.
    unresolved: usize,
}

impl<K, V> Default for MapLocal<K, V> {
    fn default() -> Self {
        MapLocal {
            key_locks: StripeSet::default(),
            store_buffer: StripeMap::default(),
            delta: 0,
            unresolved: 0,
        }
    }
}

impl<K: Clone + Eq + Hash, V> MapLocal<K, V> {
    /// Move the tallies from an entry's old share to its new one.
    fn retally(&mut self, old: (isize, usize), new: (isize, usize)) {
        self.delta += new.0 - old.0;
        self.unresolved = self.unresolved + new.1 - old.1;
    }

    /// The buffer step: make `key`'s entry what `next` makes of the current
    /// one, in one probe of the buffer (its entry API), with the tallies
    /// kept in step. With `undo`, return the key and the replaced entry,
    /// which [`Self::restore`] puts back if an enclosing closed frame rolls
    /// back; only then is the key cloned; a root-frame write moves it in.
    fn buffer(
        &mut self,
        key: K,
        undo: bool,
        next: impl FnOnce(Option<&Pending<V>>) -> Pending<V>,
    ) -> Option<(K, Option<Pending<V>>)> {
        let undo_key = undo.then(|| key.clone());
        let (old_tally, new_tally, old) = match self.store_buffer.entry(key) {
            Entry::Occupied(mut e) => {
                let new = next(Some(e.get()));
                (e.get().tally(), new.tally(), Some(e.insert(new)))
            }
            Entry::Vacant(e) => {
                let new = next(None);
                let tally = new.tally();
                e.insert(new);
                ((0, 0), tally, None)
            }
        };
        self.retally(old_tally, new_tally);
        undo_key.map(|k| (k, old))
    }

    /// Undo one buffer step: make `old` `key`'s entry again. The tallies
    /// follow the entries, so a blind entry resolved since the step comes
    /// back blind (or goes) correctly too.
    fn restore(&mut self, key: K, old: Option<Pending<V>>) {
        let old_tally = old.as_ref().map_or((0, 0), Pending::tally);
        let replaced = match old {
            Some(e) => self.store_buffer.insert(key, e),
            None => self.store_buffer.remove(&key),
        };
        self.retally(replaced.as_ref().map_or((0, 0), Pending::tally), old_tally);
    }

    /// Record `key`'s committed presence in its entry, if still blind.
    fn resolve(&mut self, key: &K, committed: bool) {
        let Some(e) = self.store_buffer.get_mut(key) else {
            return;
        };
        if e.committed.is_none() {
            e.committed = Some(committed);
            let tally = e.tally();
            self.retally((0, 1), tally);
        }
    }
}

/// The variant half of the map class (kernel [`SemanticClass`]): the
/// wrapped backend plus the striped key and whole-collection lock tables.
/// Everything invariant — registration, buffered state, sweep order — is
/// [`SemanticCore`]'s.
pub(crate) struct MapClass<K, V, B> {
    pub(crate) backend: B,
    pub(crate) tables: ClassTables<K>,
    _value: PhantomData<fn() -> V>,
}

impl<K, V, B> SemanticClass for MapClass<K, V, B>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: MapBackend<K, V>,
{
    type Local = MapLocal<K, V>;
    type RangeKey = K;

    fn name(&self) -> &'static str {
        "map"
    }

    fn global_stripe(&self) -> &GlobalStripe<K> {
        self.tables.global_stripe()
    }

    fn conflict_graph(&self) -> Option<&'static ConflictGraph<'static>> {
        Some(&MAP_CONFLICT_GRAPH)
    }

    /// Snapshot reads need per-version committed history, which is exactly
    /// what [`MapReadOps::TRANSACTIONAL_READS`] asserts: a TVar backend
    /// serves them, a boosted backend (reads bypass the TVar layer) falls
    /// back to the validated path.
    fn snapshot_capable(&self) -> bool {
        <B as crate::backend::MapReadOps<K, V>>::TRANSACTIONAL_READS
    }

    /// Commit handler: apply the store buffer and doom conflicting lock
    /// holders, per-key applies and dooms under one hold of the key's
    /// stripe, size/empty dooms in the global stripe last (the kernel's
    /// sweep discipline).
    fn apply(&self, local: MapLocal<K, V>, htx: &mut Txn) {
        let mut net: isize = 0;
        let global = self.tables.commit_sweep(
            htx.handle().id(),
            local.store_buffer.iter().map(|(k, e)| (k, &e.write)),
            local.key_locks.iter(),
            |k, w, cx| match w {
                BufWrite::Put(v) => {
                    let old = self.backend.insert(htx, k.clone(), v.clone());
                    if old.is_none() {
                        net += 1;
                    }
                    // put conflicts with any reader of this key (Table 2).
                    cx.doom(UpdateEffect::KeyWrite, k);
                }
                BufWrite::Remove => {
                    let old = self.backend.remove(htx, k);
                    if old.is_some() {
                        net -= 1;
                        // Removing nothing conflicts with nobody (Table 1).
                        cx.doom(UpdateEffect::KeyWrite, k);
                    }
                }
            },
        );
        // The handler lane keeps every other commit's applies out of this
        // sweep, so the length now is this commit's size after, and the
        // size before is that minus the net change. Only a net change needs
        // it. A boosted backend's length locks every shard, so it is read
        // only then; a TVar backend's is one var read, which the simulated
        // figures charge to every commit, so it is always read.
        let size_after = (net != 0 || <B as crate::backend::MapReadOps<K, V>>::TRANSACTIONAL_READS)
            .then(|| self.backend.len(htx));
        // Global stripe last: every key apply above happens-before this
        // hold, so a size/empty observer locking after this scan reads the
        // fully applied post-commit state.
        global.finish(|g| {
            if let Some(after) = size_after {
                g.size_moved((after as isize - net) as usize, after);
            }
        });
    }

    /// Abort handler (compensating transaction): discard buffered state,
    /// release locks — stripes ascending, global stripe last.
    fn release(&self, local: MapLocal<K, V>, htx: &mut Txn) {
        self.tables
            .release_sweep(htx.handle().id(), local.key_locks.iter());
    }

    /// Only buffered writes reach the backend: a read-only transaction's
    /// handlers release locks and leave settled reads alone.
    fn writes_backend(&self, local: &MapLocal<K, V>) -> bool {
        !local.store_buffer.is_empty()
    }
}

impl<K, V, B> KeyedClass for MapClass<K, V, B>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: MapBackend<K, V>,
{
    type Key = K;

    fn key_tables(&self) -> &ClassTables<K> {
        &self.tables
    }

    fn held_keys(local: &mut MapLocal<K, V>) -> &mut StripeSet<K> {
        &mut local.key_locks
    }
}

impl<K, V, B> MapKind for MapClass<K, V, B>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: MapBackend<K, V>,
{
    type Value = V;
    type Backend = B;

    fn backend(&self) -> &B {
        &self.backend
    }

    /// A flattened open: no handler rebalances a hash map, so a point read
    /// needs no settling.
    fn read_point<R>(_core: &SemanticCore<Self>, tx: &mut Txn, f: impl FnMut(&mut Txn) -> R) -> R {
        tx.open_read(f)
    }
}

/// What the hash map and the sorted map do differently in the point
/// operations they share: how a committed point read is made. Each shared
/// operation — the buffered-entry lookup, the buffer step, `get`,
/// `contains_key`, the reading and the blind writes, blind-write
/// resolution, `size` and `is_empty_primitive` — has one body, on
/// [`SemanticCore`] below.
pub(crate) trait MapKind:
    KeyedClass<Local = MapLocal<<Self as KeyedClass>::Key, <Self as MapKind>::Value>> + Sized
{
    /// The map's value type.
    type Value: Clone + Send + 'static;
    /// The wrapped map's type.
    type Backend: MapBackend<Self::Key, Self::Value>;
    /// The wrapped map.
    fn backend(&self) -> &Self::Backend;
    /// Read committed state for a point operation, the key's lock held.
    fn read_point<R>(core: &SemanticCore<Self>, tx: &mut Txn, f: impl FnMut(&mut Txn) -> R) -> R;
}

// `MapKind` is crate-private, and so are the operations this impl adds.
#[allow(private_bounds)]
impl<C: MapKind> SemanticCore<C>
where
    C::Key: Send + 'static,
{
    /// The buffered-entry lookup: `f` of the value this transaction's own
    /// write to `key` leaves visible, or `None` if it has not written `key`.
    pub(crate) fn buffered<R>(
        &self,
        tx: &mut Txn,
        key: &C::Key,
        f: impl FnOnce(Option<&C::Value>) -> R,
    ) -> Option<R> {
        self.try_local(tx, |l| l.store_buffer.get(key).map(|e| f(e.write.value())))
            .flatten()
    }

    /// The buffer step ([`MapLocal::buffer`]), with its undo registered
    /// inside a closed frame.
    fn buffer(
        &self,
        tx: &mut Txn,
        key: C::Key,
        next: impl FnOnce(Option<&Pending<C::Value>>) -> Pending<C::Value>,
    ) {
        let undo = tx.in_closed_frame();
        if let Some((key, old)) = self.with_local(tx, |l| l.buffer(key, undo, next)) {
            self.local_undo(tx, move |l| l.restore(key, old));
        }
    }

    /// Take `key`'s lock, then read the committed map for it (lock, then
    /// read: see the module docs).
    pub(crate) fn read_committed<R>(
        &self,
        tx: &mut Txn,
        key: &C::Key,
        mut f: impl FnMut(&mut Txn, &C::Backend) -> R,
    ) -> R {
        self.take_key_lock(tx, key);
        let backend = self.class().backend();
        C::read_point(self, tx, |otx| f(otx, backend))
    }

    pub(crate) fn get(&self, tx: &mut Txn, key: &C::Key) -> Option<C::Value> {
        self.ensure_registered(tx);
        self.buffered(tx, key, |v| v.cloned())
            .unwrap_or_else(|| self.read_committed(tx, key, |otx, b| b.get(otx, key)))
    }

    pub(crate) fn contains_key(&self, tx: &mut Txn, key: &C::Key) -> bool {
        self.ensure_registered(tx);
        self.buffered(tx, key, |v| v.is_some())
            .unwrap_or_else(|| self.read_committed(tx, key, |otx, b| b.contains_key(otx, key)))
    }

    /// `put`/`remove`: buffer `write` over the value this transaction sees
    /// for `key` — its own write, or else the committed value, read under
    /// the key lock — and return that value.
    pub(crate) fn write_read(
        &self,
        tx: &mut Txn,
        key: C::Key,
        write: BufWrite<C::Value>,
    ) -> Option<C::Value> {
        self.ensure_registered(tx);
        let old = self
            .buffered(tx, &key, |v| v.cloned())
            .unwrap_or_else(|| self.read_committed(tx, &key, |otx, b| b.get(otx, &key)));
        let present = old.is_some();
        // A buffered entry keeps what it knew of the committed state (still
        // nothing, if blind); an unbuffered key was just read.
        self.buffer(tx, key, |cur| Pending {
            write,
            committed: cur.map_or(Some(present), |e| e.committed),
        });
        old
    }

    /// `put_discard`/`remove_discard`: buffer `write` without reading `key`
    /// — no key lock, one probe of the buffer.
    pub(crate) fn write_blind(&self, tx: &mut Txn, key: C::Key, write: BufWrite<C::Value>) {
        self.ensure_registered(tx);
        self.buffer(tx, key, |cur| Pending {
            write,
            committed: cur.and_then(|e| e.committed),
        });
    }

    /// Resolve blind writes: a size observation needs to know whether each
    /// blindly written key was committed, which is itself a key read (so it
    /// takes the key lock the blind write deliberately avoided, or finds it
    /// already held).
    fn resolve_blind(&self, tx: &mut Txn) {
        // The scan stops at the last blind entry; with none, it never starts.
        let blind: Vec<C::Key> = self
            .try_local(tx, |l| {
                l.store_buffer
                    .iter()
                    .filter(|(_, e)| e.committed.is_none())
                    .take(l.unresolved)
                    .map(|(k, _)| k.clone())
                    .collect()
            })
            .unwrap_or_default();
        for k in blind {
            let present = self.read_committed(tx, &k, |otx, b| b.contains_key(otx, &k));
            self.with_local(tx, |l| l.resolve(&k, present));
        }
    }

    pub(crate) fn size(&self, tx: &mut Txn) -> usize {
        self.observed_size(tx, ObsMode::Size).max(0) as usize
    }

    pub(crate) fn is_empty_primitive(&self, tx: &mut Txn) -> bool {
        self.observed_size(tx, ObsMode::Empty) <= 0
    }

    /// The size this transaction sees, under the size or the zero-crossing
    /// lock (`lock`): blind writes resolved, then the committed length (a
    /// settled read) plus the buffer's delta.
    fn observed_size(&self, tx: &mut Txn, lock: ObsMode) -> isize {
        self.ensure_registered(tx);
        self.resolve_blind(tx);
        self.take_point_lock(tx, lock);
        let backend = self.class().backend();
        let committed = self.read_settled(tx, |otx| backend.len(otx));
        committed as isize + self.try_local(tx, |l| l.delta).unwrap_or(0)
    }
}

/// A transactional wrapper making any [`MapBackend`] safe and scalable to use
/// from long-running transactions.
///
/// ```
/// use stm::atomic;
/// use txcollections::TransactionalMap;
///
/// let map: TransactionalMap<u32, String> = TransactionalMap::new();
/// atomic(|tx| {
///     map.put(tx, 1, "one".to_string());
///     assert_eq!(map.get(tx, &1).as_deref(), Some("one"));
/// });
/// ```
pub struct TransactionalMap<K, V, B = TxHashMap<K, V>>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: MapBackend<K, V>,
{
    pub(crate) core: SemanticCore<MapClass<K, V, B>>,
}

impl<K, V, B> Clone for TransactionalMap<K, V, B>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: MapBackend<K, V>,
{
    fn clone(&self) -> Self {
        TransactionalMap {
            core: self.core.clone(),
        }
    }
}

impl<K, V> TransactionalMap<K, V, TxHashMap<K, V>>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create a `TransactionalMap` over a fresh [`TxHashMap`].
    pub fn new() -> Self {
        Self::wrap(TxHashMap::new())
    }

    /// Create over a fresh [`TxHashMap`] with an explicit stripe count for
    /// the semantic lock table (rounded up to a power of two; `1` recovers
    /// the single-table behavior of the unstriped design).
    pub fn with_stripes(nstripes: usize) -> Self {
        Self::wrap_with_stripes(TxHashMap::new(), nstripes)
    }

    /// Create over a fresh, pre-sized [`TxHashMap`].
    pub fn with_capacity(capacity: usize) -> Self {
        Self::wrap(TxHashMap::with_capacity(capacity))
    }
}

impl<K, V> TransactionalMap<K, V, BoostedHashMap<K, V>>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create over a fresh non-transactional [`BoostedHashMap`] — the
    /// boosted configuration: reads and commit-time writes go to a real
    /// sharded concurrent map with no TVars on the hot path, and isolation
    /// comes entirely from this wrapper's semantic locks plus the handler
    /// lane (see "Backend layers" in `DESIGN.md`).
    pub fn boosted() -> Self {
        Self::wrap(BoostedHashMap::new())
    }

    /// [`Self::boosted`] with an explicit semantic-lock stripe count (the
    /// backend's shard count is its own, independent knob).
    pub fn boosted_with_stripes(nstripes: usize) -> Self {
        Self::wrap_with_stripes(BoostedHashMap::new(), nstripes)
    }
}

impl<K, V> Default for TransactionalMap<K, V, TxHashMap<K, V>>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, B> TransactionalMap<K, V, B>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: MapBackend<K, V>,
{
    /// Wrap an existing map implementation (the paper's drop-in-replacement
    /// use: "they can serve as drop-in replacements in existing programs").
    /// Uses [`DEFAULT_STRIPES`] key stripes.
    pub fn wrap(backend: B) -> Self {
        Self::wrap_with_stripes(backend, DEFAULT_STRIPES)
    }

    /// Wrap an existing map implementation with an explicit stripe count.
    pub fn wrap_with_stripes(backend: B, nstripes: usize) -> Self {
        TransactionalMap {
            core: SemanticCore::new(MapClass {
                backend,
                tables: ClassTables::new(nstripes),
                _value: PhantomData,
            }),
        }
    }

    /// Semantic-conflict counters for this instance.
    pub fn semantic_stats(&self) -> &SemanticStats {
        self.core.stats()
    }

    /// Number of key stripes in this instance's semantic lock table.
    pub fn stripe_count(&self) -> usize {
        self.core.class().tables.stripe_count()
    }

    // ------------------------------------------------------------------
    // Read operations (Table 2, upper half)
    // ------------------------------------------------------------------

    /// Look up a key. Takes a key lock; reads the committed map as a
    /// flattened open (`Txn::open_read` — validated like an open-nested
    /// child, without the child); consults the store buffer for this
    /// transaction's own writes.
    pub fn get(&self, tx: &mut Txn, key: &K) -> Option<V> {
        self.core.get(tx, key)
    }

    /// Whether a key is present (key lock on the argument — note that even
    /// observing *absence* conflicts with a later `put` of that key,
    /// Table 1).
    pub fn contains_key(&self, tx: &mut Txn, key: &K) -> bool {
        self.core.contains_key(tx, key)
    }

    /// Number of entries as seen by this transaction. Takes the **size
    /// lock** (global stripe): any committing transaction that changes the
    /// size dooms us. Blind writes are resolved first: each blindly written
    /// key is read under its key lock.
    pub fn size(&self, tx: &mut Txn) -> usize {
        self.core.size(tx)
    }

    /// `size() == 0`, implemented as a derivative of [`Self::size`]: takes
    /// the full size lock, so it conflicts with *any* size change. See
    /// [`Self::is_empty_primitive`] for the higher-concurrency variant the
    /// paper derives in §5.1.
    pub fn is_empty(&self, tx: &mut Txn) -> bool {
        self.size(tx) == 0
    }

    /// Emptiness as a primitive operation with its own **zero-crossing
    /// lock** (paper §5.1): conflicts only when the size moves to or from
    /// zero, so `if !is_empty { put(unique_key) }` transactions commute.
    pub fn is_empty_primitive(&self, tx: &mut Txn) -> bool {
        self.core.is_empty_primitive(tx)
    }

    // ------------------------------------------------------------------
    // Write operations (Table 2, lower half)
    // ------------------------------------------------------------------

    /// Insert or replace; returns the previous value.
    ///
    /// Because it returns the old value, `put` *reads* the key (paper §5.1
    /// "Extensions to java.util.Map") and therefore takes a key lock. The
    /// write itself is buffered until commit. Use [`Self::put_discard`] when
    /// the old value is not needed.
    pub fn put(&self, tx: &mut Txn, key: K, value: V) -> Option<V> {
        self.core.write_read(tx, key, BufWrite::Put(value))
    }

    /// Insert or replace **without reading the old value** — the
    /// information-hiding variant of §5.1: two transactions blind-writing the
    /// same key (the `"LastModified"` idiom) do not conflict with each other,
    /// only with readers of that key.
    pub fn put_discard(&self, tx: &mut Txn, key: K, value: V) {
        self.core.write_blind(tx, key, BufWrite::Put(value))
    }

    /// Remove a key; returns the previous value (and therefore reads the
    /// key — takes a key lock).
    pub fn remove(&self, tx: &mut Txn, key: &K) -> Option<V> {
        self.core.write_read(tx, key.clone(), BufWrite::Remove)
    }

    /// Remove without reading the old value (blind; see
    /// [`Self::put_discard`]).
    pub fn remove_discard(&self, tx: &mut Txn, key: &K) {
        self.core.write_blind(tx, key.clone(), BufWrite::Remove)
    }

    // ------------------------------------------------------------------
    // Iteration
    // ------------------------------------------------------------------

    /// Begin enumerating the map as seen by this transaction.
    ///
    /// Keys are snapshotted eagerly (one consistent open-nested read) but
    /// **values are read live and key locks are taken lazily** as entries
    /// are returned, per Table 2 (`entrySet.iterator.next` takes a key lock
    /// on the return value). When the iterator is exhausted it takes the
    /// size lock and verifies the enumeration is still complete; if entries
    /// appeared concurrently the transaction aborts and retries.
    pub fn iter(&self, tx: &mut Txn) -> TxMapIter<K, V, B> {
        self.core.ensure_registered(tx);
        let backend = &self.core.class().backend;
        let committed_keys: Vec<K> = tx.open_read(|otx| backend.keys(otx));
        // Buffered puts of keys the snapshot lacks are enumerated after it;
        // the snapshot's key set is built only once there is a put to test.
        let buffered_new: Vec<(K, V)> = self
            .core
            .try_local(tx, |l| {
                let mut key_set: Option<StripeSet<&K>> = None;
                l.store_buffer
                    .iter()
                    .filter_map(|(k, e)| Some((k, e.write.value()?)))
                    .filter(|(k, _)| {
                        !key_set
                            .get_or_insert_with(|| committed_keys.iter().collect())
                            .contains(k)
                    })
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect()
            })
            .unwrap_or_default();
        TxMapIter {
            map: self.clone(),
            keys: committed_keys,
            pos: 0,
            confirmed: 0,
            buffered_new,
            bpos: 0,
            exhausted: false,
        }
    }

    /// Convenience: collect all entries visible to this transaction
    /// (fully enumerates, so it takes the size lock).
    pub fn entries(&self, tx: &mut Txn) -> Vec<(K, V)> {
        let mut it = self.iter(tx);
        // Every snapshot key and buffered new key yields at most one entry.
        let mut out = Vec::with_capacity(it.keys.len() + it.buffered_new.len());
        while let Some(e) = it.next(tx) {
            out.push(e);
        }
        out
    }

    /// Convenience: all keys visible to this transaction.
    pub fn keys(&self, tx: &mut Txn) -> Vec<K> {
        self.entries(tx).into_iter().map(|(k, _)| k).collect()
    }

    /// Number of semantic key locks currently outstanding across all
    /// stripes (diagnostics).
    pub fn locked_key_count(&self) -> usize {
        self.core.class().tables.locked_key_count()
    }
}

/// Iterator over a [`TransactionalMap`]; see [`TransactionalMap::iter`].
///
/// Unlike a std iterator this is a *transactional cursor*: `next` needs the
/// transaction context to take locks, so it is a method taking `&mut Txn`
/// rather than an `Iterator` impl.
pub struct TxMapIter<K, V, B>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: MapBackend<K, V>,
{
    map: TransactionalMap<K, V, B>,
    keys: Vec<K>,
    pos: usize,
    /// How many snapshot keys were still committed when visited.
    confirmed: usize,
    buffered_new: Vec<(K, V)>,
    bpos: usize,
    exhausted: bool,
}

impl<K, V, B> TxMapIter<K, V, B>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: MapBackend<K, V>,
{
    /// Produce the next entry, or `None` at exhaustion (at which point the
    /// size lock has been taken).
    pub fn next(&mut self, tx: &mut Txn) -> Option<(K, V)> {
        loop {
            if self.pos < self.keys.len() {
                let k = self.keys[self.pos].clone();
                self.pos += 1;
                // Lock, then read live (lock-then-read soundness).
                let core = &self.map.core;
                let committed = core.read_committed(tx, &k, |otx, b| b.get(otx, &k));
                if committed.is_some() {
                    self.confirmed += 1;
                }
                match core.buffered(tx, &k, |v| v.cloned()).unwrap_or(committed) {
                    Some(v) => return Some((k, v)),
                    None => continue, // concurrently/by-us removed: skip
                }
            }
            if self.bpos < self.buffered_new.len() {
                let e = self.buffered_new[self.bpos].clone();
                self.bpos += 1;
                return Some(e);
            }
            if !self.exhausted {
                self.exhausted = true;
                self.map.core.take_point_lock(tx, ObsMode::Size);
                // Completeness check: keys committed after our snapshot would
                // silently be missed. Each confirmed key was key-locked before
                // it was read, so a commit that removes it dooms this attempt,
                // and a doomed attempt never commits. In an attempt that
                // commits, every confirmed key is still committed here, so
                // equal counts mean equal key sets: the enumeration equals the
                // committed state at this instant, a valid serialization
                // point. Otherwise abort and retry (docs/PROTOCOL.md,
                // "Enumeration completeness by count").
                let backend = &self.map.core.class().backend;
                let confirmed = self.confirmed;
                let complete = self
                    .map
                    .core
                    .read_settled(tx, |otx| backend.len(otx) == confirmed);
                if !complete {
                    stm::abort_and_retry();
                }
            }
            return None;
        }
    }
}
