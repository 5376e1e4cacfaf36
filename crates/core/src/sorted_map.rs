//! `TransactionalSortedMap` — semantic concurrency control for the
//! `SortedMap` abstract data type (paper §3.2).
//!
//! Extends the `Map` protocol with the sorted-specific abstract properties
//! of Tables 4–6: **key ranges** (ordered iteration and `subMap`/`headMap`/
//! `tailMap` views take growing range locks), and the **first/last
//! endpoints** (`firstKey`/`lastKey` take endpoint locks; a committing
//! `put`/`remove` that changes an endpoint dooms their holders).
//!
//! "It's important to note that ranges are more than just a series of keys"
//! (§3.2): inserting a new key *inside* a range another transaction has
//! iterated violates serializability even though no iterated key was
//! touched. The range lock covers the whole interval, so such inserts doom
//! the iterator's transaction at the writer's commit.
//!
//! Key locks live in the striped table (one stripe per key-hash shard);
//! the order-based tables — endpoint locks and range locks — live in the
//! **global stripe** together with the size/empty point locks, because a
//! range or endpoint observation concerns the whole ordered structure and
//! cannot be attributed to one key shard. A committing writer's handler
//! applies and dooms per key under the key's stripe (ascending order), then
//! enters the global stripe once for the range/endpoint/size dooms — so
//! order-based observers still see a totally ordered table.
//!
//! Range locks live in a flat scanned list — the paper's
//! complexity-vs-overhead call (§3.2). Iterators read the underlying tree
//! *stepwise and live* (`next_entry_after` per step), merging the
//! transaction's store buffer in key order.
//!
//! The point operations (`get`, `put`, `put_discard`, `remove`, `size`, ...)
//! are the hash map's: one body in `map.rs`, run through [`MapKind`], which
//! supplies only the sorted map's committed point read and where its size
//! and emptiness locks live.
//!
//! Every committed read of the tree — a point read, a step — is a settled
//! read ([`SemanticCore::read_settled`]): a commit handler rebalances the
//! tree one direct publish at a time, and a search that validated between
//! two of those publishes could miss a committed key or return a stale
//! value, so the read is retried until none of this map's writing handlers
//! ran during it (docs/PROTOCOL.md, "Whole-collection reads between handler
//! runs").

// txlint: semantic-tables
// txlint: fast-path
use crate::backend::SortedMapBackend;
use crate::conflict_graph::{edge, op, ConflictGraph, Overlap};
use crate::kernel::{
    sweep_commit_footprint, sweep_release_footprint, CachedPoint, FootprintOp, KeyedClass,
    SemanticClass, SemanticCore,
};
use crate::locks::{
    ObsMode, PointLocks, SemanticStats, SortedGlobal, SortedTables, StripedTables, UpdateEffect,
    DEFAULT_STRIPES,
};
use crate::map::{BufWrite, MapKind, MapLocal};
use std::hash::Hash;
use std::marker::PhantomData;
use std::ops::Bound;
use stm::hash::{key_hash64, StripeSet};
use stm::Txn;
use txstruct::TxTreeMap;

// txlint: conflict-graph
/// Paper Tables 4–5 as a declared conflict graph: the sorted map adds the
/// endpoint (`First`/`Last`) and `Range` observation modes plus the
/// endpoint-moving effects to the plain map's graph. Lock modes are
/// synthesized from this declaration and validated against the dispatch
/// matrix at core construction; txlint TX010 checks it lexically.
pub static SORTED_MAP_CONFLICT_GRAPH: ConflictGraph<'static> = ConflictGraph {
    class: "sorted_map",
    ops: &[
        op("get", &[ObsMode::Key], &[]),
        op(
            "put",
            &[ObsMode::Key],
            &[
                UpdateEffect::KeyWrite,
                UpdateEffect::SizeChange,
                UpdateEffect::ZeroCross,
                UpdateEffect::FirstChange,
                UpdateEffect::LastChange,
            ],
        ),
        op(
            "remove",
            &[ObsMode::Key],
            &[
                UpdateEffect::KeyWrite,
                UpdateEffect::SizeChange,
                UpdateEffect::ZeroCross,
                UpdateEffect::FirstChange,
                UpdateEffect::LastChange,
            ],
        ),
        op(
            "put_blind",
            &[],
            &[
                UpdateEffect::KeyWrite,
                UpdateEffect::SizeChange,
                UpdateEffect::ZeroCross,
                UpdateEffect::FirstChange,
                UpdateEffect::LastChange,
            ],
        ),
        op("size", &[ObsMode::Size], &[]),
        op("is_empty_primitive", &[ObsMode::Empty], &[]),
        op("first_key", &[ObsMode::First, ObsMode::Key], &[]),
        op("last_key", &[ObsMode::Last, ObsMode::Key], &[]),
        op(
            "range_iter",
            &[ObsMode::Range, ObsMode::Key, ObsMode::Size],
            &[],
        ),
    ],
    edges: &[
        // Same-key writes doom key observers (Table 4 interior cells:
        // distinct keys commute).
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
            "first_key",
            "put",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "first_key",
            "remove",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "first_key",
            "put_blind",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "last_key",
            "put",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "last_key",
            "remove",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "last_key",
            "put_blind",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "range_iter",
            "put",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "range_iter",
            "remove",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "range_iter",
            "put_blind",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        // Range observers are doomed by writes landing inside their
        // interval (Table 5).
        edge(
            "range_iter",
            "put",
            ObsMode::Range,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "range_iter",
            "remove",
            ObsMode::Range,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "range_iter",
            "put_blind",
            ObsMode::Range,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        // size() and exhausted iteration vs any size change.
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
            "range_iter",
            "put",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        edge(
            "range_iter",
            "remove",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        edge(
            "range_iter",
            "put_blind",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        // §5.1 emptiness primitive vs zero-crossings.
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
        // Endpoint observers vs endpoint-moving updates (Table 4).
        edge(
            "first_key",
            "put",
            ObsMode::First,
            UpdateEffect::FirstChange,
            Overlap::Always,
        ),
        edge(
            "first_key",
            "remove",
            ObsMode::First,
            UpdateEffect::FirstChange,
            Overlap::Always,
        ),
        edge(
            "first_key",
            "put_blind",
            ObsMode::First,
            UpdateEffect::FirstChange,
            Overlap::Always,
        ),
        edge(
            "last_key",
            "put",
            ObsMode::Last,
            UpdateEffect::LastChange,
            Overlap::Always,
        ),
        edge(
            "last_key",
            "remove",
            ObsMode::Last,
            UpdateEffect::LastChange,
            Overlap::Always,
        ),
        edge(
            "last_key",
            "put_blind",
            ObsMode::Last,
            UpdateEffect::LastChange,
            Overlap::Always,
        ),
    ],
};

/// The variant half of the sorted-map class (kernel [`SemanticClass`]): the
/// wrapped backend plus the striped key-lock table whose global stripe also
/// carries the order-based range/endpoint locks.
pub(crate) struct SortedClass<K, V, B> {
    pub(crate) backend: B,
    pub(crate) tables: SortedTables<K>,
    _value: PhantomData<fn() -> V>,
}

impl<K, V, B> SemanticClass for SortedClass<K, V, B>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: SortedMapBackend<K, V>,
{
    type Local = MapLocal<K, V>;
    type Undo = ();

    fn name(&self) -> &'static str {
        "sorted_map"
    }

    fn conflict_graph(&self) -> Option<&'static ConflictGraph<'static>> {
        Some(&SORTED_MAP_CONFLICT_GRAPH)
    }

    /// See `MapClass::snapshot_capable`: versioned (TVar) backends serve
    /// snapshot reads, non-transactional ones fall back.
    fn snapshot_capable(&self) -> bool {
        <B as crate::backend::MapReadOps<K, V>>::TRANSACTIONAL_READS
    }

    /// Commit handler: apply the store buffer and doom conflicting
    /// observers — per-key applies and key dooms under each key's stripe
    /// (ascending, the kernel's sweep), then the global stripe **last** for
    /// the range/endpoint/size dooms and the point-lock release.
    fn apply(&self, local: MapLocal<K, V>, htx: &mut Txn, id: u64, stats: &SemanticStats) {
        // The handler lane serializes every handler and every writing
        // open-nested commit, so these pre-apply endpoint/size reads are
        // stable without holding any table lock.
        let first_before = self.backend.first_entry(htx).map(|(k, _)| k);
        let last_before = self.backend.last_entry(htx).map(|(k, _)| k);
        let size_before = self.backend.len(htx) as isize;
        let mut size_after = size_before;

        // Phase 1 — key stripes, ascending (kernel sweep): apply each
        // buffered write and doom key-lock observers under the key's
        // stripe; release own key locks. Keys whose committed state
        // actually changed are collected for the global-stripe range scan
        // (phase 2). Writes apply in key order, not the buffer's hash
        // order, so the tree's shape — and every rotation and conflict that
        // follows from it — is the same in every process.
        let mut writes: Vec<_> = local
            .store_buffer
            .iter()
            .map(|(k, e)| (k, &e.write))
            .collect();
        writes.sort_unstable_by(|a, b| a.0.cmp(b.0));
        let mut changed_keys: Vec<&K> = Vec::new();
        sweep_commit_footprint(
            &self.tables,
            stats,
            writes,
            local.key_locks.iter(),
            |shard, op| match op {
                FootprintOp::Apply(k, BufWrite::Put(v)) => {
                    let old = self.backend.insert(htx, k.clone(), v.clone());
                    if old.is_none() {
                        size_after += 1;
                    }
                    let doomed = shard.doom_update(UpdateEffect::KeyWrite, k, id, stats);
                    stats.bump(&stats.key_conflicts, doomed);
                    changed_keys.push(k);
                }
                FootprintOp::Apply(k, BufWrite::Remove) => {
                    let old = self.backend.remove(htx, k);
                    if old.is_some() {
                        size_after -= 1;
                        let doomed = shard.doom_update(UpdateEffect::KeyWrite, k, id, stats);
                        stats.bump(&stats.key_conflicts, doomed);
                        changed_keys.push(k);
                    }
                }
                FootprintOp::Release(k) => {
                    shard.release_keys(id, std::iter::once(k), stats);
                }
            },
        );

        // Phase 2 — global stripe, last: every apply above happens-before
        // this hold, so range/endpoint/size observers locking after this
        // scan read the fully applied post-commit state.
        let first_after = self.backend.first_entry(htx).map(|(k, _)| k);
        let last_after = self.backend.last_entry(htx).map(|(k, _)| k);
        self.tables.with_global(stats, |g| {
            for k in &changed_keys {
                let (by_range, _, _) =
                    g.sorted
                        .doom_update(UpdateEffect::KeyWrite, Some(k), key_hash64(k), id, stats);
                stats.bump(&stats.range_conflicts, by_range);
            }
            if first_before != first_after {
                let (_, by_first, _) =
                    g.sorted
                        .doom_update(UpdateEffect::FirstChange, None, 0, id, stats);
                stats.bump(&stats.first_conflicts, by_first);
            }
            if last_before != last_after {
                let (_, _, by_last) =
                    g.sorted
                        .doom_update(UpdateEffect::LastChange, None, 0, id, stats);
                stats.bump(&stats.last_conflicts, by_last);
            }
            if size_after != size_before {
                let (by_size, _) = g.points.doom_update(UpdateEffect::SizeChange, id, stats);
                stats.bump(&stats.size_conflicts, by_size);
                if (size_before == 0) != (size_after == 0) {
                    let (_, by_empty) = g.points.doom_update(UpdateEffect::ZeroCross, id, stats);
                    stats.bump(&stats.empty_conflicts, by_empty);
                }
            }
            g.points.release_owner(id, stats);
            g.sorted.release_owner(id, stats);
        });
    }

    /// Abort handler (compensating transaction): release key locks stripe
    /// by stripe ascending (kernel sweep), then every point/range/endpoint
    /// lock in the global stripe, last.
    fn release(&self, local: MapLocal<K, V>, _htx: &mut Txn, id: u64, stats: &SemanticStats) {
        sweep_release_footprint(
            &self.tables,
            stats,
            local.key_locks.iter(),
            |shard, keys| shard.release_keys(id, keys.iter().copied(), stats),
        );
        self.tables.with_global(stats, |g| {
            g.points.release_owner(id, stats);
            g.sorted.release_owner(id, stats);
        });
    }

    /// Only buffered writes reach the backend: a read-only transaction's
    /// handlers release locks and leave settled reads alone.
    fn writes_backend(&self, local: &MapLocal<K, V>) -> bool {
        !local.store_buffer.is_empty()
    }
}

impl<K, V, B> KeyedClass for SortedClass<K, V, B>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: SortedMapBackend<K, V>,
{
    type Key = K;
    type Global = SortedGlobal<K>;

    fn key_tables(&self) -> &SortedTables<K> {
        &self.tables
    }

    fn held_keys(local: &mut MapLocal<K, V>) -> &mut StripeSet<K> {
        &mut local.key_locks
    }
}

impl<K, V, B> MapKind for SortedClass<K, V, B>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: SortedMapBackend<K, V>,
{
    type Value = V;
    type Backend = B;

    fn backend(&self) -> &B {
        &self.backend
    }

    /// A settled read: see the module docs.
    fn read_point<R>(core: &SemanticCore<Self>, tx: &mut Txn, f: impl FnMut(&mut Txn) -> R) -> R {
        core.read_settled(tx, f)
    }

    fn points(global: &mut SortedGlobal<K>) -> &mut PointLocks {
        &mut global.points
    }
}

/// A transactional wrapper making any [`SortedMapBackend`] safe and scalable
/// to use from long-running transactions, including ordered iteration and
/// range views.
pub struct TransactionalSortedMap<K, V, B = TxTreeMap<K, V>>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: SortedMapBackend<K, V>,
{
    core: SemanticCore<SortedClass<K, V, B>>,
}

impl<K, V, B> Clone for TransactionalSortedMap<K, V, B>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: SortedMapBackend<K, V>,
{
    fn clone(&self) -> Self {
        TransactionalSortedMap {
            core: self.core.clone(),
        }
    }
}

fn below_upper<K: Ord>(k: &K, upper: &Bound<K>) -> bool {
    match upper {
        Bound::Unbounded => true,
        Bound::Included(u) => k <= u,
        Bound::Excluded(u) => k < u,
    }
}

fn above_lower<K: Ord>(k: &K, lower: &Bound<K>) -> bool {
    match lower {
        Bound::Unbounded => true,
        Bound::Included(l) => k >= l,
        Bound::Excluded(l) => k > l,
    }
}

impl<K, V> TransactionalSortedMap<K, V, TxTreeMap<K, V>>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create a `TransactionalSortedMap` over a fresh [`TxTreeMap`].
    pub fn new() -> Self {
        Self::wrap(TxTreeMap::new())
    }

    /// Create over a fresh [`TxTreeMap`] with an explicit stripe count for
    /// the key-lock table (rounded up to a power of two; `1` recovers the
    /// single-table behavior).
    pub fn with_stripes(nstripes: usize) -> Self {
        Self::wrap_with_stripes(TxTreeMap::new(), nstripes)
    }
}

impl<K, V> Default for TransactionalSortedMap<K, V, TxTreeMap<K, V>>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V, B> TransactionalSortedMap<K, V, B>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: SortedMapBackend<K, V>,
{
    /// Wrap an existing sorted map implementation ([`DEFAULT_STRIPES`] key
    /// stripes).
    pub fn wrap(backend: B) -> Self {
        Self::wrap_with_stripes(backend, DEFAULT_STRIPES)
    }

    /// Wrap with an explicit key-stripe count.
    pub fn wrap_with_stripes(backend: B, nstripes: usize) -> Self {
        TransactionalSortedMap {
            core: SemanticCore::new(SortedClass {
                backend,
                tables: StripedTables::new(nstripes, SortedGlobal::default()),
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

    /// Number of semantic key locks currently outstanding across all
    /// stripes (diagnostics).
    pub fn locked_key_count(&self) -> usize {
        self.core.class().tables.locked_key_count(self.core.stats())
    }

    /// Read the committed tree as a settled read (see the module docs): no
    /// handler of this map rebalances it while `f` runs.
    fn committed<R>(&self, tx: &mut Txn, mut f: impl FnMut(&mut Txn, &B) -> R) -> R {
        let backend = &self.core.class().backend;
        self.core.read_settled(tx, |otx| f(otx, backend))
    }

    /// Whether this transaction's own write removes `key`.
    fn removed_here(&self, tx: &mut Txn, key: &K) -> bool {
        self.core.buffered(tx, key, |v| v.is_none()) == Some(true)
    }

    // ------------------------------------------------------------------
    // Map-level operations (TransactionalMap's, one body in map.rs)
    // ------------------------------------------------------------------

    /// Look up a key (key lock + settled read).
    pub fn get(&self, tx: &mut Txn, key: &K) -> Option<V> {
        self.core.get(tx, key)
    }

    /// Whether a key is present (key lock).
    pub fn contains_key(&self, tx: &mut Txn, key: &K) -> bool {
        self.core.contains_key(tx, key)
    }

    /// Insert or replace; returns the previous value (reads the key).
    pub fn put(&self, tx: &mut Txn, key: K, value: V) -> Option<V> {
        self.core.write_read(tx, key, BufWrite::Put(value))
    }

    /// Insert or replace without reading the old value (§5.1 extension).
    pub fn put_discard(&self, tx: &mut Txn, key: K, value: V) {
        self.core.write_blind(tx, key, BufWrite::Put(value))
    }

    /// Remove a key; returns the previous value (reads the key).
    pub fn remove(&self, tx: &mut Txn, key: &K) -> Option<V> {
        self.core.write_read(tx, key.clone(), BufWrite::Remove)
    }

    /// Remove without reading the old value (blind; see
    /// [`Self::put_discard`]).
    pub fn remove_discard(&self, tx: &mut Txn, key: &K) {
        self.core.write_blind(tx, key.clone(), BufWrite::Remove)
    }

    /// Number of entries (size lock, global stripe).
    pub fn size(&self, tx: &mut Txn) -> usize {
        self.core.size(tx)
    }

    /// `size() == 0` (size lock); see `TransactionalMap::is_empty_primitive`
    /// for the rationale of the separate zero-crossing variant.
    pub fn is_empty(&self, tx: &mut Txn) -> bool {
        self.size(tx) == 0
    }

    /// Emptiness with its own zero-crossing lock (§5.1).
    pub fn is_empty_primitive(&self, tx: &mut Txn) -> bool {
        self.core.is_empty_primitive(tx)
    }

    // ------------------------------------------------------------------
    // Sorted operations
    // ------------------------------------------------------------------

    /// Committed next entry after `from`, skipping keys the buffer removes,
    /// staying under `upper`. Each step is one settled descent.
    fn committed_next(&self, tx: &mut Txn, from: &Bound<K>, upper: &Bound<K>) -> Option<(K, V)> {
        let mut cur = match from {
            Bound::Unbounded => self.committed(tx, |otx, b| b.first_entry(otx)),
            Bound::Included(k) => self.committed(tx, |otx, b| b.ceiling_entry(otx, k)),
            Bound::Excluded(k) => self.committed(tx, |otx, b| b.next_entry_after(otx, k)),
        };
        while let Some((k, v)) = cur {
            if !below_upper(&k, upper) {
                return None;
            }
            if !self.removed_here(tx, &k) {
                return Some((k, v));
            }
            cur = self.committed(tx, |otx, b| b.next_entry_after(otx, &k));
        }
        None
    }

    /// Smallest buffered `Put` with key in `(from, upper]`.
    fn buffered_next(&self, tx: &mut Txn, from: &Bound<K>, upper: &Bound<K>) -> Option<(K, V)> {
        self.core
            .try_local(tx, |l| {
                l.store_buffer
                    .iter()
                    .filter(|&(k, _)| above_lower(k, from) && below_upper(k, upper))
                    .filter_map(|(k, e)| Some((k, e.write.value()?)))
                    .min_by(|a, b| a.0.cmp(b.0))
                    .map(|(k, v)| (k.clone(), v.clone()))
            })
            .flatten()
    }

    /// Largest committed entry at or below `upper`, skipping keys the buffer
    /// removes, staying above `lower` (the mirror of [`Self::committed_next`]).
    fn committed_prev(&self, tx: &mut Txn, upper: &Bound<K>, lower: &Bound<K>) -> Option<(K, V)> {
        let mut cur = match upper {
            Bound::Unbounded => self.committed(tx, |otx, b| b.last_entry(otx)),
            Bound::Included(k) => self.committed(tx, |otx, b| b.floor_entry(otx, k)),
            Bound::Excluded(k) => self.committed(tx, |otx, b| b.prev_entry_before(otx, k)),
        };
        while let Some((k, v)) = cur {
            if !above_lower(&k, lower) {
                return None;
            }
            if !self.removed_here(tx, &k) {
                return Some((k, v));
            }
            cur = self.committed(tx, |otx, b| b.prev_entry_before(otx, &k));
        }
        None
    }

    /// The smallest visible entry in the given range.
    ///
    /// Protocol (probe → lock → verify): a first unlocked probe finds the
    /// candidate; the range lock `[lower, candidate]` (plus the first lock
    /// when `lower` is unbounded, Table 5) is taken; then the committed
    /// state is **re-read under the lock** and the verified value returned.
    /// If the verify disagrees, the world changed between probe and lock and
    /// the query restarts — the returned observation is therefore always
    /// covered by a lock that predates it (lock-then-read soundness).
    pub fn first_in_range(&self, tx: &mut Txn, lower: Bound<K>, upper: Bound<K>) -> Option<(K, V)> {
        self.core.ensure_registered(tx);
        if matches!(lower, Bound::Unbounded) {
            self.core
                .take_point_lock(tx, CachedPoint::First, |owner, stats| {
                    self.core
                        .class()
                        .tables
                        .with_global(stats, |g| g.sorted.take_first_lock(owner, stats))
                });
        }
        for _attempt in 0..64 {
            let committed = self.committed_next(tx, &lower, &upper);
            let buffered = self.buffered_next(tx, &lower, &upper);
            let candidate = match (&committed, &buffered) {
                (None, None) => None,
                (Some((ck, _)), None) => Some(ck.clone()),
                (None, Some((bk, _))) => Some(bk.clone()),
                (Some((ck, _)), Some((bk, _))) => {
                    Some(if bk <= ck { bk.clone() } else { ck.clone() })
                }
            };
            // Lock the observed prefix (or the whole empty range).
            let lock_upper = match &candidate {
                Some(k) => Bound::Included(k.clone()),
                None => upper.clone(),
            };
            // Snapshot skip: the observed prefix is already stable (served
            // from the version chains), and a snapshot transaction runs no
            // release sweep, so a range lock taken here would leak.
            if !tx.in_snapshot() {
                let owner = tx.handle().clone();
                let lo = lower.clone();
                let up = lock_upper.clone();
                let stats = self.core.stats();
                self.core.class().tables.with_global(stats, |g| {
                    g.sorted.add_range_lock(owner, lo, up, stats);
                });
            }
            // Verify under the lock.
            let verify = self.committed_next(tx, &lower, &lock_upper);
            match (&candidate, verify) {
                (None, None) => return None,
                (Some(k), verify) => {
                    let committed_now = match verify {
                        Some((vk, vv)) if vk == *k => Some(vv),
                        Some(_) => continue, // a smaller committed key appeared
                        None => None,
                    };
                    // Buffer override for the candidate key.
                    let value = self
                        .core
                        .buffered(tx, k, |v| v.cloned())
                        .unwrap_or(committed_now);
                    match value {
                        Some(v) => {
                            self.core.take_key_lock(tx, k);
                            return Some((k.clone(), v));
                        }
                        // Candidate vanished between probe and verify.
                        None => continue,
                    }
                }
                (None, Some(_)) => continue, // something appeared in the range
            }
        }
        // Pathological contention: give up the attempt and retry the whole
        // transaction (the §5.1 livelock hazard, resolved by back-off).
        stm::abort_and_retry()
    }

    /// Largest buffered `Put` with key in `[lower, upper]` bounds.
    fn buffered_prev(&self, tx: &mut Txn, upper: &Bound<K>, lower: &Bound<K>) -> Option<(K, V)> {
        self.core
            .try_local(tx, |l| {
                l.store_buffer
                    .iter()
                    .filter(|&(k, _)| above_lower(k, lower) && below_upper(k, upper))
                    .filter_map(|(k, e)| Some((k, e.write.value()?)))
                    .max_by(|a, b| a.0.cmp(b.0))
                    .map(|(k, v)| (k.clone(), v.clone()))
            })
            .flatten()
    }

    /// The largest visible entry in the given range — the mirror of
    /// [`Self::first_in_range`], with the same probe → lock → verify
    /// protocol (the last lock when `upper` is unbounded, a range lock
    /// `[candidate, upper]` otherwise).
    pub fn last_in_range(&self, tx: &mut Txn, lower: Bound<K>, upper: Bound<K>) -> Option<(K, V)> {
        self.core.ensure_registered(tx);
        if matches!(upper, Bound::Unbounded) {
            self.core
                .take_point_lock(tx, CachedPoint::Last, |owner, stats| {
                    self.core
                        .class()
                        .tables
                        .with_global(stats, |g| g.sorted.take_last_lock(owner, stats))
                });
        }
        for _attempt in 0..64 {
            let committed = self.committed_prev(tx, &upper, &lower);
            let buffered = self.buffered_prev(tx, &upper, &lower);
            let candidate = match (&committed, &buffered) {
                (None, None) => None,
                (Some((ck, _)), None) => Some(ck.clone()),
                (None, Some((bk, _))) => Some(bk.clone()),
                (Some((ck, _)), Some((bk, _))) => {
                    Some(if bk >= ck { bk.clone() } else { ck.clone() })
                }
            };
            let lock_lower = match &candidate {
                Some(k) => Bound::Included(k.clone()),
                None => lower.clone(),
            };
            // Snapshot skip: see `first_in_range`.
            if !tx.in_snapshot() {
                let owner = tx.handle().clone();
                let lo = lock_lower.clone();
                let up = upper.clone();
                let stats = self.core.stats();
                self.core.class().tables.with_global(stats, |g| {
                    g.sorted.add_range_lock(owner, lo, up, stats);
                });
            }
            let verify = self.committed_prev(tx, &upper, &lock_lower);
            match (&candidate, verify) {
                (None, None) => return None,
                (Some(k), verify) => {
                    let committed_now = match verify {
                        Some((vk, vv)) if vk == *k => Some(vv),
                        Some(_) => continue, // a larger committed key appeared
                        None => None,
                    };
                    let value = self
                        .core
                        .buffered(tx, k, |v| v.cloned())
                        .unwrap_or(committed_now);
                    match value {
                        Some(v) => {
                            self.core.take_key_lock(tx, k);
                            return Some((k.clone(), v));
                        }
                        None => continue,
                    }
                }
                (None, Some(_)) => continue,
            }
        }
        stm::abort_and_retry()
    }

    /// Smallest key (first lock + key lock on the result, Table 5).
    pub fn first_key(&self, tx: &mut Txn) -> Option<K> {
        self.first_in_range(tx, Bound::Unbounded, Bound::Unbounded)
            .map(|(k, _)| k)
    }

    // NavigableMap-style queries (the JDK6 `NavigableMap` extension the
    // paper's §2.2 mentions). Each takes a range lock covering the gap it
    // observed plus a key lock on the answer.

    /// Smallest key `>= key`.
    pub fn ceiling_key(&self, tx: &mut Txn, key: &K) -> Option<K> {
        self.first_in_range(tx, Bound::Included(key.clone()), Bound::Unbounded)
            .map(|(k, _)| k)
    }

    /// Smallest key `> key`.
    pub fn higher_key(&self, tx: &mut Txn, key: &K) -> Option<K> {
        self.first_in_range(tx, Bound::Excluded(key.clone()), Bound::Unbounded)
            .map(|(k, _)| k)
    }

    /// Largest key `<= key`.
    pub fn floor_key(&self, tx: &mut Txn, key: &K) -> Option<K> {
        self.last_in_range(tx, Bound::Unbounded, Bound::Included(key.clone()))
            .map(|(k, _)| k)
    }

    /// Largest key `< key`.
    pub fn lower_key(&self, tx: &mut Txn, key: &K) -> Option<K> {
        self.last_in_range(tx, Bound::Unbounded, Bound::Excluded(key.clone()))
            .map(|(k, _)| k)
    }

    /// Largest key (last lock + key lock on the result, Table 5).
    pub fn last_key(&self, tx: &mut Txn) -> Option<K> {
        self.last_in_range(tx, Bound::Unbounded, Bound::Unbounded)
            .map(|(k, _)| k)
    }

    /// Begin ordered iteration over the whole map.
    pub fn iter(&self, tx: &mut Txn) -> TxSortedIter<K, V, B> {
        self.range_iter(tx, Bound::Unbounded, Bound::Unbounded)
    }

    /// Begin ordered iteration over `[lower, upper]` as given.
    ///
    /// The iterator owns a **growing range lock**: after returning key `k`
    /// its lock covers `[lower, k]`; on exhaustion it covers the full range,
    /// so inserts *anywhere* in the iterated interval doom this transaction
    /// at the writer's commit.
    pub fn range_iter(
        &self,
        tx: &mut Txn,
        lower: Bound<K>,
        upper: Bound<K>,
    ) -> TxSortedIter<K, V, B> {
        self.core.ensure_registered(tx);
        TxSortedIter {
            map: self.clone(),
            lower,
            upper,
            last: None,
            range_id: None,
            done: false,
        }
    }

    /// All visible entries in key order (fully enumerates: on return, the
    /// whole range is locked).
    pub fn entries(&self, tx: &mut Txn) -> Vec<(K, V)> {
        let mut it = self.iter(tx);
        let mut out = Vec::new();
        while let Some(e) = it.next(tx) {
            out.push(e);
        }
        out
    }

    /// Visible entries within a range, in key order.
    pub fn range_entries(&self, tx: &mut Txn, lower: Bound<K>, upper: Bound<K>) -> Vec<(K, V)> {
        let mut it = self.range_iter(tx, lower, upper);
        let mut out = Vec::new();
        while let Some(e) = it.next(tx) {
            out.push(e);
        }
        out
    }

    /// A mutable range view (the `subMap` of the `SortedMap` interface).
    pub fn sub_map(&self, lower: Bound<K>, upper: Bound<K>) -> SortedMapView<K, V, B> {
        SortedMapView {
            map: self.clone(),
            lower,
            upper,
        }
    }

    /// View of all keys `< upper` (`headMap`).
    pub fn head_map(&self, upper: Bound<K>) -> SortedMapView<K, V, B> {
        self.sub_map(Bound::Unbounded, upper)
    }

    /// View of all keys `>= lower` (`tailMap`).
    pub fn tail_map(&self, lower: Bound<K>) -> SortedMapView<K, V, B> {
        self.sub_map(lower, Bound::Unbounded)
    }
}

/// Ordered transactional cursor; see [`TransactionalSortedMap::range_iter`].
pub struct TxSortedIter<K, V, B>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: SortedMapBackend<K, V>,
{
    map: TransactionalSortedMap<K, V, B>,
    lower: Bound<K>,
    upper: Bound<K>,
    last: Option<K>,
    range_id: Option<u64>,
    done: bool,
}

impl<K, V, B> TxSortedIter<K, V, B>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: SortedMapBackend<K, V>,
{
    fn extend_lock(&mut self, tx: &Txn, upper: Bound<K>) {
        // Snapshot skip: the growing range lock exists to doom writers that
        // insert into the iterated prefix, but a snapshot iteration is
        // isolated by the version chains and has no sweep to release the
        // lock — taking it would leak it. See `first_in_range`.
        if tx.in_snapshot() {
            return;
        }
        let class = self.map.core.class();
        let stats = self.map.core.stats();
        match self.range_id {
            Some(id) => class.tables.with_global(stats, |g| {
                g.sorted.extend_range_upper(id, upper);
            }),
            None => {
                let owner = tx.handle().clone();
                let lower = self.lower.clone();
                self.range_id = Some(class.tables.with_global(stats, |g| {
                    g.sorted.add_range_lock(owner, lower, upper, stats)
                }));
            }
        }
    }

    /// Produce the next entry in key order, or `None` once the range is
    /// exhausted (at which point the range lock spans the entire range).
    ///
    /// Each step is probe → lock-extension → verify: the candidate is found
    /// unlocked, the growing range lock is extended to cover it, and the
    /// committed state is re-read under the lock. The returned value always
    /// comes from the post-lock read, so a writer committing between probe
    /// and lock either shows up in the verify (the step restarts) or
    /// commits after the lock and dooms this transaction — never a stale
    /// observation.
    pub fn next(&mut self, tx: &mut Txn) -> Option<(K, V)> {
        if self.done {
            return None;
        }
        let from: Bound<K> = match &self.last {
            None => self.lower.clone(),
            Some(k) => Bound::Excluded(k.clone()),
        };
        for _attempt in 0..64 {
            let committed = self.map.committed_next(tx, &from, &self.upper);
            let buffered = self.map.buffered_next(tx, &from, &self.upper);
            let candidate: Option<K> = match (&committed, &buffered) {
                (None, None) => None,
                (Some((ck, _)), None) => Some(ck.clone()),
                (None, Some((bk, _))) => Some(bk.clone()),
                (Some((ck, _)), Some((bk, _))) => {
                    Some(if bk <= ck { bk.clone() } else { ck.clone() })
                }
            };
            match candidate {
                Some(k) => {
                    self.extend_lock(tx, Bound::Included(k.clone()));
                    // Verify under the lock: the next committed key within
                    // the freshly locked prefix.
                    let verify = self
                        .map
                        .committed_next(tx, &from, &Bound::Included(k.clone()));
                    let committed_now = match verify {
                        Some((vk, vv)) if vk == k => Some(vv),
                        // A smaller committed key slipped in before the
                        // lock: re-probe (the lock now covers it, so it is
                        // stable for the next round).
                        Some(_) => continue,
                        None => None,
                    };
                    let value = self
                        .map
                        .core
                        .buffered(tx, &k, |v| v.cloned())
                        .unwrap_or(committed_now);
                    match value {
                        Some(v) => {
                            self.last = Some(k.clone());
                            return Some((k, v));
                        }
                        // The candidate vanished between probe and lock.
                        None => continue,
                    }
                }
                None => {
                    // Exhaustion: lock the whole remaining range, then make
                    // sure nothing appeared before the lock landed.
                    self.extend_lock(tx, self.upper.clone());
                    if matches!(self.upper, Bound::Unbounded) {
                        // Observed that nothing follows: the last-key lock
                        // of Table 5's `hasNext == false` row.
                        let core = &self.map.core;
                        core.take_point_lock(tx, CachedPoint::Last, |owner, stats| {
                            core.class()
                                .tables
                                .with_global(stats, |g| g.sorted.take_last_lock(owner, stats))
                        });
                    }
                    let verify = self.map.committed_next(tx, &from, &self.upper);
                    if verify.is_some() {
                        continue;
                    }
                    self.done = true;
                    return None;
                }
            }
        }
        stm::abort_and_retry()
    }
}

/// A live range view over a [`TransactionalSortedMap`] (`subMap`/`headMap`/
/// `tailMap`). Mutations through the view are bounds-checked.
pub struct SortedMapView<K, V, B>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: SortedMapBackend<K, V>,
{
    map: TransactionalSortedMap<K, V, B>,
    lower: Bound<K>,
    upper: Bound<K>,
}

impl<K, V, B> SortedMapView<K, V, B>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
    B: SortedMapBackend<K, V>,
{
    fn check_bounds(&self, key: &K) {
        assert!(
            above_lower(key, &self.lower) && below_upper(key, &self.upper),
            "key outside of view bounds"
        );
    }

    /// Look up a key within the view.
    pub fn get(&self, tx: &mut Txn, key: &K) -> Option<V> {
        self.check_bounds(key);
        self.map.get(tx, key)
    }

    /// Insert within the view.
    pub fn put(&self, tx: &mut Txn, key: K, value: V) -> Option<V> {
        self.check_bounds(&key);
        self.map.put(tx, key, value)
    }

    /// Remove within the view.
    pub fn remove(&self, tx: &mut Txn, key: &K) -> Option<V> {
        self.check_bounds(key);
        self.map.remove(tx, key)
    }

    /// First entry of the view.
    pub fn first_entry(&self, tx: &mut Txn) -> Option<(K, V)> {
        self.map
            .first_in_range(tx, self.lower.clone(), self.upper.clone())
    }

    /// Last entry of the view.
    pub fn last_entry(&self, tx: &mut Txn) -> Option<(K, V)> {
        self.map
            .last_in_range(tx, self.lower.clone(), self.upper.clone())
    }

    /// Iterate the view in key order.
    pub fn iter(&self, tx: &mut Txn) -> TxSortedIter<K, V, B> {
        self.map
            .range_iter(tx, self.lower.clone(), self.upper.clone())
    }

    /// All visible entries of the view.
    pub fn entries(&self, tx: &mut Txn) -> Vec<(K, V)> {
        let mut it = self.iter(tx);
        let mut out = Vec::new();
        while let Some(e) = it.next(tx) {
            out.push(e);
        }
        out
    }
}
