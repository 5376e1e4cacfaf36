//! `TransactionalPriorityQueue` — a min-priority queue with semantic
//! concurrency control and **synthesized** locks.
//!
//! The queue stores element counts in a sorted backend (duplicates are
//! counted, not materialized), so the committed minimum is the backend's
//! first entry. `insert` is a blind buffered increment, like the
//! multiset's `add`. `peek_min`/`pop_min` observe the **first endpoint**:
//! they take the `First` lock *before* probing (lock-then-read), so any
//! commit that moves the minimum dooms them — no probe/verify loop is
//! needed, unlike the sorted map's range scans where the observation is a
//! whole interval. No hand-written mode table exists for this class: lock
//! modes come from [`PRIORITY_QUEUE_CONFLICT_GRAPH`], validated against
//! the dispatch matrix at construction.

// txlint: semantic-tables
// txlint: fast-path
use crate::backend::SortedMapBackend;
use crate::conflict_graph::{edge, op, ConflictGraph, Overlap};
use crate::kernel::{ClassTables, KeyedClass, SemanticClass, SemanticCore};
use crate::locks::{GlobalStripe, ObsMode, SemanticStats, UpdateEffect, DEFAULT_STRIPES};
use std::collections::BTreeMap;
use std::hash::Hash;
use stm::hash::StripeSet;
use stm::{TVar, Txn};
use txstruct::TxTreeMap;

// txlint: conflict-graph
/// The priority queue's declared conflict graph. `insert` is blind;
/// `peek_min` and `pop_min` observe the minimum (`First` + the `Key` of
/// the returned element, `Empty` when there is none), and `pop_min` also
/// writes that element — so it needs the reflexive self-edges in every
/// mode it both observes and publishes. `len` is the total-cardinality
/// observer.
pub static PRIORITY_QUEUE_CONFLICT_GRAPH: ConflictGraph<'static> = ConflictGraph {
    class: "priority_queue",
    ops: &[
        op(
            "insert",
            &[],
            &[
                UpdateEffect::KeyWrite,
                UpdateEffect::SizeChange,
                UpdateEffect::ZeroCross,
                UpdateEffect::FirstChange,
            ],
        ),
        op(
            "peek_min",
            &[ObsMode::First, ObsMode::Key, ObsMode::Empty],
            &[],
        ),
        op(
            "pop_min",
            &[ObsMode::First, ObsMode::Key, ObsMode::Empty],
            &[
                UpdateEffect::KeyWrite,
                UpdateEffect::SizeChange,
                UpdateEffect::ZeroCross,
                UpdateEffect::FirstChange,
            ],
        ),
        op("len", &[ObsMode::Size], &[]),
        op("is_empty_primitive", &[ObsMode::Empty], &[]),
    ],
    edges: &[
        // The observed minimum vs writes of that same element; writes of
        // larger elements commute with having read the min's multiplicity.
        edge(
            "peek_min",
            "insert",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "peek_min",
            "pop_min",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "pop_min",
            "insert",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "pop_min",
            "pop_min",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        // Endpoint observers vs commits that move the minimum.
        edge(
            "peek_min",
            "insert",
            ObsMode::First,
            UpdateEffect::FirstChange,
            Overlap::Always,
        ),
        edge(
            "peek_min",
            "pop_min",
            ObsMode::First,
            UpdateEffect::FirstChange,
            Overlap::Always,
        ),
        edge(
            "pop_min",
            "insert",
            ObsMode::First,
            UpdateEffect::FirstChange,
            Overlap::Always,
        ),
        edge(
            "pop_min",
            "pop_min",
            ObsMode::First,
            UpdateEffect::FirstChange,
            Overlap::Always,
        ),
        // Emptiness observers (a `None` result) vs zero-crossings.
        edge(
            "peek_min",
            "insert",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        edge(
            "peek_min",
            "pop_min",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        edge(
            "pop_min",
            "insert",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        edge(
            "pop_min",
            "pop_min",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        edge(
            "is_empty_primitive",
            "insert",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        edge(
            "is_empty_primitive",
            "pop_min",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        // Total-cardinality observer vs any occupancy change.
        edge(
            "len",
            "insert",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        edge(
            "len",
            "pop_min",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
    ],
};

/// Per-transaction local state: buffered multiplicity deltas (ordered so
/// the buffered minimum is a first-entry probe), held element locks, and
/// the buffered change to the total count.
pub(crate) struct PqLocal<T> {
    pub deltas: BTreeMap<T, i64>,
    pub key_locks: StripeSet<T>,
    pub total_delta: i64,
}

impl<T> Default for PqLocal<T> {
    fn default() -> Self {
        PqLocal {
            deltas: BTreeMap::new(),
            key_locks: StripeSet::default(),
            total_delta: 0,
        }
    }
}

/// The variant half of the priority-queue class: count-valued sorted
/// backend, the total counter, and the striped tables whose global stripe
/// carries the endpoint/size/empty locks.
pub(crate) struct PqClass<T, B> {
    pub(crate) backend: B,
    pub(crate) total: TVar<u64>,
    pub(crate) tables: ClassTables<T>,
}

impl<T, B> SemanticClass for PqClass<T, B>
where
    T: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    B: SortedMapBackend<T, u64>,
{
    type Local = PqLocal<T>;
    type RangeKey = T;

    fn name(&self) -> &'static str {
        "priority_queue"
    }

    fn global_stripe(&self) -> &GlobalStripe<T> {
        self.tables.global_stripe()
    }

    fn conflict_graph(&self) -> Option<&'static ConflictGraph<'static>> {
        Some(&PRIORITY_QUEUE_CONFLICT_GRAPH)
    }

    /// See `MapClass::snapshot_capable`: versioned (TVar) backends serve
    /// snapshot reads, non-transactional ones fall back.
    fn snapshot_capable(&self) -> bool {
        <B as crate::backend::MapReadOps<T, u64>>::TRANSACTIONAL_READS
    }

    /// Commit handler: apply the buffered multiplicity deltas under each
    /// element's stripe (ascending, the kernel's sweep), dooming observers
    /// of each changed element; then the global stripe last for the
    /// endpoint/size/empty dooms. Counts are clamped at zero — visibility
    /// was checked under the element lock, so a negative clamp only fires
    /// for doomed racers.
    fn apply(&self, local: PqLocal<T>, htx: &mut Txn) {
        // The handler lane serializes handlers and writing open-nested
        // commits, so these pre-apply reads are stable without table locks.
        let min_before = self.backend.first_entry(htx).map(|(k, _)| k);
        let total_before = self.total.read(htx);
        let mut applied: i64 = 0;

        let global = self.tables.commit_sweep(
            htx.handle().id(),
            local.deltas.iter(),
            local.key_locks.iter(),
            |k, &d, cx| {
                if d == 0 {
                    return;
                }
                let cur = self.backend.get(htx, k).unwrap_or(0) as i64;
                let new = (cur + d).max(0);
                if new != cur {
                    if new == 0 {
                        let _ = self.backend.remove(htx, k);
                    } else {
                        let _ = self.backend.insert(htx, k.clone(), new as u64);
                    }
                    applied += new - cur;
                    cx.doom(UpdateEffect::KeyWrite, k);
                }
            },
        );

        let total_after = ((total_before as i64) + applied).max(0) as u64;
        if total_after != total_before {
            self.total.write(htx, total_after);
        }

        // Global stripe last: every apply above happens-before this hold.
        // The class takes no range locks, so only endpoint and point dooms
        // are needed here.
        let min_after = self.backend.first_entry(htx).map(|(k, _)| k);
        global.finish(|g| {
            if min_before != min_after {
                g.doom(UpdateEffect::FirstChange);
            }
            g.size_moved(total_before as usize, total_after as usize);
        });
    }

    /// Abort handler: writes were only buffered — pure lock release, key
    /// stripes ascending then the global phase last.
    fn release(&self, local: PqLocal<T>, htx: &mut Txn) {
        self.tables
            .release_sweep(htx.handle().id(), local.key_locks.iter());
    }
}

impl<T, B> KeyedClass for PqClass<T, B>
where
    T: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    B: SortedMapBackend<T, u64>,
{
    type Key = T;

    fn key_tables(&self) -> &ClassTables<T> {
        &self.tables
    }

    fn held_keys(local: &mut PqLocal<T>) -> &mut StripeSet<T> {
        &mut local.key_locks
    }
}

/// A transactional min-priority queue with synthesized semantic locks.
/// Duplicate elements are supported (counted multiplicities).
///
/// ```
/// use stm::atomic;
/// use txcollections::TransactionalPriorityQueue;
///
/// let pq: TransactionalPriorityQueue<u32> = TransactionalPriorityQueue::new();
/// atomic(|tx| {
///     pq.insert(tx, 5);
///     pq.insert(tx, 3);
///     pq.insert(tx, 3);
///     assert_eq!(pq.pop_min(tx), Some(3));
///     assert_eq!(pq.pop_min(tx), Some(3));
///     assert_eq!(pq.peek_min(tx), Some(5));
/// });
/// ```
pub struct TransactionalPriorityQueue<T, B = TxTreeMap<T, u64>>
where
    T: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    B: SortedMapBackend<T, u64>,
{
    core: SemanticCore<PqClass<T, B>>,
}

impl<T, B> Clone for TransactionalPriorityQueue<T, B>
where
    T: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    B: SortedMapBackend<T, u64>,
{
    fn clone(&self) -> Self {
        TransactionalPriorityQueue {
            core: self.core.clone(),
        }
    }
}

impl<T> TransactionalPriorityQueue<T, TxTreeMap<T, u64>>
where
    T: Clone + Ord + Eq + Hash + Send + Sync + 'static,
{
    /// Create a priority queue over a fresh count-valued [`TxTreeMap`].
    pub fn new() -> Self {
        Self::wrap(TxTreeMap::new())
    }

    /// Create with an explicit lock-table stripe count (rounded up to a
    /// power of two; `1` recovers the unstriped design).
    pub fn with_stripes(nstripes: usize) -> Self {
        Self::wrap_with_stripes(TxTreeMap::new(), nstripes)
    }
}

impl<T> Default for TransactionalPriorityQueue<T, TxTreeMap<T, u64>>
where
    T: Clone + Ord + Eq + Hash + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<T, B> TransactionalPriorityQueue<T, B>
where
    T: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    B: SortedMapBackend<T, u64>,
{
    /// Wrap an existing count-valued sorted backend.
    pub fn wrap(backend: B) -> Self {
        Self::wrap_with_stripes(backend, DEFAULT_STRIPES)
    }

    /// Wrap with an explicit stripe count.
    pub fn wrap_with_stripes(backend: B, nstripes: usize) -> Self {
        TransactionalPriorityQueue {
            core: SemanticCore::new(PqClass {
                backend,
                total: TVar::new(0),
                tables: ClassTables::new(nstripes),
            }),
        }
    }

    /// Semantic-conflict counters for this instance.
    pub fn semantic_stats(&self) -> &SemanticStats {
        self.core.stats()
    }

    /// Stripe count of the semantic lock table.
    pub fn stripe_count(&self) -> usize {
        self.core.class().tables.stripe_count()
    }

    /// Number of semantic key locks currently outstanding across all
    /// stripes (diagnostics).
    pub fn locked_key_count(&self) -> usize {
        self.core.class().tables.locked_key_count()
    }

    /// Buffer a multiplicity delta with a local undo (closed-nested
    /// rollback).
    fn buffer_delta(&self, tx: &mut Txn, value: T, d: i64) {
        self.core.with_local(tx, |l| {
            *l.deltas.entry(value.clone()).or_insert(0) += d;
            l.total_delta += d;
        });
        self.core.local_undo(tx, move |l| {
            *l.deltas.entry(value).or_insert(0) -= d;
            l.total_delta -= d;
        });
    }

    /// Insert an element — a **blind** buffered increment: takes no
    /// semantic lock, so concurrent inserts always commute, even of equal
    /// elements.
    pub fn insert(&self, tx: &mut Txn, value: T) {
        self.core.ensure_registered(tx);
        self.buffer_delta(tx, value, 1);
    }

    /// The visible minimum under this transaction's `First` lock.
    ///
    /// Lock-then-read: the `First` lock is taken **before** any probe, so a
    /// concurrent commit that moves the minimum dooms this transaction
    /// rather than letting it read a stale endpoint. The committed side is
    /// walked ascending (skipping elements whose buffered delta cancels
    /// their committed count) and merged with the smallest
    /// positively-buffered local element. The result's element lock — or
    /// the `Empty` lock, when there is no result — is taken before
    /// returning.
    fn visible_min(&self, tx: &mut Txn) -> Option<T> {
        self.core.take_point_lock(tx, ObsMode::First);

        // Committed side: counts stored in the backend are always >= 1, but
        // this transaction's own buffered deltas may cancel them.
        let mut committed_min: Option<T> = None;
        let backend = &self.core.class().backend;
        let mut cur = tx.open_read(|otx| backend.first_entry(otx));
        while let Some((k, c)) = cur {
            let delta = self
                .core
                .try_local(tx, |l| l.deltas.get(&k).copied().unwrap_or(0))
                .unwrap_or(0);
            if c as i64 + delta > 0 {
                committed_min = Some(k);
                break;
            }
            cur = tx.open_read(|otx| backend.next_entry_after(otx, &k));
        }

        // Buffered side: a positive delta is visible regardless of the
        // committed count.
        let buffered_min = self
            .core
            .try_local(tx, |l| {
                l.deltas
                    .iter()
                    .find(|(_, d)| **d > 0)
                    .map(|(k, _)| k.clone())
            })
            .flatten();

        let candidate = match (committed_min, buffered_min) {
            (None, None) => None,
            (Some(c), None) => Some(c),
            (None, Some(b)) => Some(b),
            (Some(c), Some(b)) => Some(if b <= c { b } else { c }),
        };
        match &candidate {
            Some(k) => self.core.take_key_lock(tx, k),
            None => self.core.take_point_lock(tx, ObsMode::Empty),
        }
        candidate
    }

    /// Smallest visible element without removing it (`First` lock plus the
    /// result's element lock; `Empty` lock when the queue is empty).
    pub fn peek_min(&self, tx: &mut Txn) -> Option<T> {
        self.core.ensure_registered(tx);
        self.visible_min(tx)
    }

    /// Remove and return the smallest visible element (peek's observations
    /// plus a buffered decrement of the result).
    pub fn pop_min(&self, tx: &mut Txn) -> Option<T> {
        self.core.ensure_registered(tx);
        let min = self.visible_min(tx)?;
        self.buffer_delta(tx, min.clone(), -1);
        Some(min)
    }

    /// Total number of queued elements, duplicates included (size lock).
    pub fn len(&self, tx: &mut Txn) -> usize {
        self.core.ensure_registered(tx);
        self.core.take_point_lock(tx, ObsMode::Size);
        let total = self.core.class().total.clone();
        let committed = tx.open_read(move |otx| total.read(otx)) as i64;
        let delta = self.core.try_local(tx, |l| l.total_delta).unwrap_or(0);
        (committed + delta).max(0) as usize
    }

    /// `len() == 0` via the size lock.
    pub fn is_empty(&self, tx: &mut Txn) -> bool {
        self.len(tx) == 0
    }

    /// Emptiness as a primitive with its own zero-crossing lock (§5.1):
    /// conflicts only when the total count moves to or from zero.
    pub fn is_empty_primitive(&self, tx: &mut Txn) -> bool {
        self.core.ensure_registered(tx);
        self.core.take_point_lock(tx, ObsMode::Empty);
        let total = self.core.class().total.clone();
        let committed = tx.open_read(move |otx| total.read(otx)) as i64;
        let delta = self.core.try_local(tx, |l| l.total_delta).unwrap_or(0);
        (committed + delta) <= 0
    }
}
