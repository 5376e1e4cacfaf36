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
use crate::backend::MapBackend;
use crate::conflict_graph::{edge, op, ConflictGraph, Overlap};
use crate::kernel::{CachedPoint, ClassTables, KeyedClass, SemanticClass, SemanticCore};
use crate::locks::{MapTables, ObsMode, PointLocks, SemanticStats, UpdateEffect, DEFAULT_STRIPES};
use std::hash::Hash;
use std::marker::PhantomData;
use stm::hash::{StripeMap, StripeSet};
use stm::{Txn, TxnMode};
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

/// A buffered write in the thread-local store buffer (the paper's "special
/// value for removed keys" is the `Remove` variant).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BufWrite<V> {
    /// Pending insert/replace.
    Put(V),
    /// Pending removal.
    Remove,
}

/// Per-transaction local state (paper Table 3: `keyLocks`, `storeBuffer`,
/// `delta`). Lives in the transaction's kernel slot rather than in a
/// thread-local — the same encapsulation, robust to handler execution
/// context.
pub(crate) struct MapLocal<K, V> {
    pub key_locks: StripeSet<K>,
    pub store_buffer: StripeMap<K, BufWrite<V>>,
    /// Size delta of buffered writes whose prior presence is known.
    pub delta: isize,
    /// Keys written blindly (`put_discard`/`remove_discard`): their effect on
    /// the size is unknown until resolved or until commit.
    pub blind: StripeSet<K>,
}

impl<K, V> Default for MapLocal<K, V> {
    fn default() -> Self {
        MapLocal {
            key_locks: StripeSet::default(),
            store_buffer: StripeMap::default(),
            delta: 0,
            blind: StripeSet::default(),
        }
    }
}

impl<K: Clone + Eq + Hash, V> MapLocal<K, V> {
    /// Buffer `write` for `key`, maintaining `delta`/`blind`, and return the
    /// undo that restores the previous buffer state (for
    /// [`SemanticCore::local_undo`]). Blindness must be preserved by further
    /// writes to the key, or the size delta silently loses the unresolved
    /// contribution.
    pub(crate) fn buffer(
        &mut self,
        key: K,
        write: BufWrite<V>,
        delta_change: isize,
        blind: bool,
    ) -> impl FnOnce(&mut Self) {
        let prev = self.store_buffer.insert(key.clone(), write);
        let was_blind = if blind {
            !self.blind.insert(key.clone())
        } else {
            self.blind.remove(&key)
        };
        self.delta += delta_change;
        move |l: &mut Self| {
            if blind && !was_blind {
                l.blind.remove(&key);
            }
            l.delta -= delta_change;
            match prev {
                Some(w) => l.store_buffer.insert(key, w),
                None => l.store_buffer.remove(&key),
            };
        }
    }
}

/// The variant half of the map class (kernel [`SemanticClass`]): the
/// wrapped backend plus the striped key/size/empty lock tables. Everything
/// invariant — registration, buffered state, sweep order — is
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
    type Undo = ();

    fn name(&self) -> &'static str {
        "map"
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
    fn apply(&self, local: MapLocal<K, V>, htx: &mut Txn, id: u64, stats: &SemanticStats) {
        let mut net: isize = 0;
        let global = self.tables.commit_sweep(
            stats,
            id,
            local.store_buffer.iter(),
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
            .then(|| self.backend.len(htx) as isize);
        // Global stripe last: every key apply above happens-before this
        // hold, so a size/empty observer locking after this scan reads the
        // fully applied post-commit state.
        global.finish(|g| {
            if let Some(after) = size_after.filter(|_| net != 0) {
                g.doom(UpdateEffect::SizeChange);
                if (after - net == 0) != (after == 0) {
                    g.doom(UpdateEffect::ZeroCross);
                }
            }
        });
    }

    /// Abort handler (compensating transaction): discard buffered state,
    /// release locks — stripes ascending, global stripe last.
    fn release(&self, local: MapLocal<K, V>, _htx: &mut Txn, id: u64, stats: &SemanticStats) {
        self.tables.release_sweep(stats, id, local.key_locks.iter());
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
    type Global = PointLocks;

    fn key_tables(&self) -> &MapTables<K> {
        self.tables.striped()
    }

    fn held_keys(local: &mut MapLocal<K, V>) -> &mut StripeSet<K> {
        &mut local.key_locks
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

    fn assert_usable(tx: &Txn) {
        assert!(
            tx.mode() == TxnMode::Speculative,
            "TransactionalMap operations cannot run inside commit/abort handlers"
        );
    }

    /// First-touch registration and handler ordering are the kernel's
    /// obligation now: [`SemanticCore::ensure_registered`] is the single
    /// place the commit/abort handler pair is wired up (txlint TX008).
    fn ensure_registered(&self, tx: &mut Txn) {
        self.core.ensure_registered(tx);
    }

    fn with_local<R>(&self, tx: &mut Txn, f: impl FnOnce(&mut MapLocal<K, V>) -> R) -> R {
        self.core.with_local(tx, f)
    }

    fn buffered(&self, tx: &mut Txn, key: &K) -> Option<BufWrite<V>> {
        self.core
            .try_local(tx, |l| l.store_buffer.get(key).cloned())
            .flatten()
    }

    /// Buffered entry plus whether it is blind (its presence relative to the
    /// committed state is unknown). Blindness must be preserved by further
    /// writes to the key, or the size delta silently loses the unresolved
    /// contribution.
    fn buffered_with_blind(&self, tx: &mut Txn, key: &K) -> (Option<BufWrite<V>>, bool) {
        self.core
            .try_local(tx, |l| {
                (l.store_buffer.get(key).cloned(), l.blind.contains(key))
            })
            .unwrap_or((None, false))
    }

    /// Buffer a write, maintaining `delta`/`blind`, with an undo in case an
    /// enclosing closed-nested frame aborts.
    fn buffer_write(
        &self,
        tx: &mut Txn,
        key: K,
        write: BufWrite<V>,
        delta_change: isize,
        blind: bool,
    ) {
        let undo = self.with_local(tx, |l| l.buffer(key, write, delta_change, blind));
        self.core.local_undo(tx, undo);
    }

    // ------------------------------------------------------------------
    // Read operations (Table 2, upper half)
    // ------------------------------------------------------------------

    /// Look up a key. Takes a key lock; reads the committed map as a
    /// flattened open (`Txn::open_read` — validated like an open-nested
    /// child, without the child); consults the store buffer for this
    /// transaction's own writes.
    pub fn get(&self, tx: &mut Txn, key: &K) -> Option<V> {
        Self::assert_usable(tx);
        self.ensure_registered(tx);
        match self.buffered(tx, key) {
            Some(BufWrite::Put(v)) => return Some(v),
            Some(BufWrite::Remove) => return None,
            None => {}
        }
        self.core.take_key_lock(tx, key);
        let backend = &self.core.class().backend;
        tx.open_read(|otx| backend.get(otx, key))
    }

    /// Whether a key is present (key lock on the argument — note that even
    /// observing *absence* conflicts with a later `put` of that key,
    /// Table 1).
    pub fn contains_key(&self, tx: &mut Txn, key: &K) -> bool {
        Self::assert_usable(tx);
        self.ensure_registered(tx);
        match self.buffered(tx, key) {
            Some(BufWrite::Put(_)) => return true,
            Some(BufWrite::Remove) => return false,
            None => {}
        }
        self.core.take_key_lock(tx, key);
        let backend = &self.core.class().backend;
        tx.open_read(|otx| backend.contains_key(otx, key))
    }

    /// Resolve blind writes: a size observation needs to know whether each
    /// blindly written key was previously present, which is itself a key
    /// read (so it takes the key lock the blind write deliberately avoided).
    fn resolve_blind(&self, tx: &mut Txn) {
        let blind: Vec<K> = self
            .core
            .try_local(tx, |l| l.blind.iter().cloned().collect())
            .unwrap_or_default();
        for k in blind {
            self.core.take_key_lock(tx, &k);
            let backend = &self.core.class().backend;
            let committed_present = tx.open_read(|otx| backend.contains_key(otx, &k));
            self.with_local(tx, |l| {
                if l.blind.remove(&k) {
                    let buffered_present = matches!(l.store_buffer.get(&k), Some(BufWrite::Put(_)));
                    l.delta += buffered_present as isize - committed_present as isize;
                }
            });
        }
    }

    /// Number of entries as seen by this transaction. Takes the **size
    /// lock** (global stripe): any committing transaction that changes the
    /// size dooms us.
    pub fn size(&self, tx: &mut Txn) -> usize {
        Self::assert_usable(tx);
        self.ensure_registered(tx);
        self.resolve_blind(tx);
        if !self.core.point_lock_cached(tx, CachedPoint::Size) {
            let owner = tx.handle().clone();
            self.core
                .class()
                .tables
                .take_size_lock(self.core.stats(), owner);
            self.core.note_point_lock(tx, CachedPoint::Size);
        }
        let backend = &self.core.class().backend;
        let committed = self.core.read_settled(tx, |otx| backend.len(otx));
        let delta = self.core.try_local(tx, |l| l.delta).unwrap_or(0);
        (committed as isize + delta).max(0) as usize
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
        Self::assert_usable(tx);
        self.ensure_registered(tx);
        self.resolve_blind(tx);
        if !self.core.point_lock_cached(tx, CachedPoint::Empty) {
            let owner = tx.handle().clone();
            self.core
                .class()
                .tables
                .take_empty_lock(self.core.stats(), owner);
            self.core.note_point_lock(tx, CachedPoint::Empty);
        }
        let backend = &self.core.class().backend;
        let committed = self.core.read_settled(tx, |otx| backend.len(otx));
        let delta = self.core.try_local(tx, |l| l.delta).unwrap_or(0);
        (committed as isize + delta) <= 0
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
        Self::assert_usable(tx);
        self.ensure_registered(tx);
        let (buffered, was_blind) = self.buffered_with_blind(tx, &key);
        let old = match buffered {
            Some(BufWrite::Put(v)) => Some(v),
            Some(BufWrite::Remove) => None,
            None => {
                self.core.take_key_lock(tx, &key);
                let backend = &self.core.class().backend;
                tx.open_read(|otx| backend.get(otx, &key))
            }
        };
        // A blind entry's contribution to the size is still unresolved:
        // keep it blind and leave the delta deferred.
        let delta_change = if was_blind {
            0
        } else {
            1 - isize::from(old.is_some())
        };
        self.buffer_write(tx, key, BufWrite::Put(value), delta_change, was_blind);
        old
    }

    /// Insert or replace **without reading the old value** — the
    /// information-hiding variant of §5.1: two transactions blind-writing the
    /// same key (the `"LastModified"` idiom) do not conflict with each other,
    /// only with readers of that key.
    pub fn put_discard(&self, tx: &mut Txn, key: K, value: V) {
        Self::assert_usable(tx);
        self.ensure_registered(tx);
        // If prior presence is already known locally, keep delta exact;
        // blind entries stay blind (deferred) across overwrites.
        match self.buffered_with_blind(tx, &key) {
            (Some(BufWrite::Put(_)), blind) => {
                self.buffer_write(tx, key, BufWrite::Put(value), 0, blind);
            }
            (Some(BufWrite::Remove), true) => {
                self.buffer_write(tx, key, BufWrite::Put(value), 0, true);
            }
            (Some(BufWrite::Remove), false) => {
                self.buffer_write(tx, key, BufWrite::Put(value), 1, false);
            }
            (None, _) => {
                let known_lock = self
                    .core
                    .try_local(tx, |l| l.key_locks.contains(&key))
                    .unwrap_or(false);
                if known_lock {
                    // We already read this key earlier: presence is known.
                    let backend = &self.core.class().backend;
                    let present = tx.open_read(|otx| backend.contains_key(otx, &key));
                    self.buffer_write(
                        tx,
                        key,
                        BufWrite::Put(value),
                        1 - isize::from(present),
                        false,
                    );
                } else {
                    self.buffer_write(tx, key, BufWrite::Put(value), 0, true);
                }
            }
        }
    }

    /// Remove a key; returns the previous value (and therefore reads the
    /// key — takes a key lock).
    pub fn remove(&self, tx: &mut Txn, key: &K) -> Option<V> {
        Self::assert_usable(tx);
        self.ensure_registered(tx);
        let (buffered, was_blind) = self.buffered_with_blind(tx, key);
        let old = match buffered {
            Some(BufWrite::Put(v)) => Some(v),
            Some(BufWrite::Remove) => None,
            None => {
                self.core.take_key_lock(tx, key);
                let backend = &self.core.class().backend;
                tx.open_read(|otx| backend.get(otx, key))
            }
        };
        let delta_change = if was_blind {
            0
        } else {
            -isize::from(old.is_some())
        };
        self.buffer_write(tx, key.clone(), BufWrite::Remove, delta_change, was_blind);
        old
    }

    /// Remove without reading the old value (blind; see
    /// [`Self::put_discard`]).
    pub fn remove_discard(&self, tx: &mut Txn, key: &K) {
        Self::assert_usable(tx);
        self.ensure_registered(tx);
        match self.buffered_with_blind(tx, key) {
            (Some(BufWrite::Put(_)), true) => {
                self.buffer_write(tx, key.clone(), BufWrite::Remove, 0, true);
            }
            (Some(BufWrite::Put(_)), false) => {
                self.buffer_write(tx, key.clone(), BufWrite::Remove, -1, false);
            }
            (Some(BufWrite::Remove), _) => {}
            (None, _) => {
                let known_lock = self
                    .core
                    .try_local(tx, |l| l.key_locks.contains(key))
                    .unwrap_or(false);
                if known_lock {
                    let backend = &self.core.class().backend;
                    let present = tx.open_read(|otx| backend.contains_key(otx, key));
                    self.buffer_write(
                        tx,
                        key.clone(),
                        BufWrite::Remove,
                        -isize::from(present),
                        false,
                    );
                } else {
                    self.buffer_write(tx, key.clone(), BufWrite::Remove, 0, true);
                }
            }
        }
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
        Self::assert_usable(tx);
        self.ensure_registered(tx);
        let backend = &self.core.class().backend;
        let committed_keys: Vec<K> =
            tx.open_read(|otx| backend.entries(otx).into_iter().map(|(k, _)| k).collect());
        // Buffered puts of keys the snapshot lacks are enumerated after it;
        // the snapshot's key set is built only once there is a put to test.
        let buffered_new: Vec<(K, V)> = self
            .core
            .try_local(tx, |l| {
                let mut key_set: Option<StripeSet<&K>> = None;
                l.store_buffer
                    .iter()
                    .filter_map(|(k, w)| match w {
                        BufWrite::Put(v) => Some((k, v)),
                        BufWrite::Remove => None,
                    })
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
        self.core.class().tables.locked_key_count(self.core.stats())
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
                self.map.core.take_key_lock(tx, &k);
                let backend = &self.map.core.class().backend;
                let committed = tx.open_read(|otx| backend.get(otx, &k));
                if committed.is_some() {
                    self.confirmed += 1;
                }
                let visible = match self.map.buffered(tx, &k) {
                    Some(BufWrite::Put(v)) => Some(v),
                    Some(BufWrite::Remove) => None,
                    None => committed,
                };
                match visible {
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
                if !self.map.core.point_lock_cached(tx, CachedPoint::Size) {
                    let owner = tx.handle().clone();
                    self.map
                        .core
                        .class()
                        .tables
                        .take_size_lock(self.map.core.stats(), owner);
                    self.map.core.note_point_lock(tx, CachedPoint::Size);
                }
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
