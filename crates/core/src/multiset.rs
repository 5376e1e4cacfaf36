//! `TransactionalMultiset` — a counted bag with semantic concurrency
//! control, built on the kernel with **synthesized** locks.
//!
//! The multiset is the map specialized to element counts: `add` is a blind
//! buffered increment (commutes with every other add, like the histogram
//! example), `remove_one` observes the element's count before decrementing
//! (so it both holds a key lock and publishes a key write), `count`
//! observes one element, `len` observes the total cardinality (sum of
//! counts — the `Size` mode), and `is_empty` is the §5.1 zero-crossing
//! primitive. No hand-written mode table exists for this class: the lock
//! modes come from [`MULTISET_CONFLICT_GRAPH`], validated against the
//! dispatch matrix at construction.

// txlint: semantic-tables
// txlint: fast-path
use crate::backend::MapBackend;
use crate::conflict_graph::{edge, op, ConflictGraph, Overlap};
use crate::kernel::{ClassTables, KeyedClass, SemanticClass, SemanticCore};
use crate::locks::{GlobalStripe, ObsMode, SemanticStats, UpdateEffect, DEFAULT_STRIPES};
use std::hash::Hash;
use stm::hash::{StripeMap, StripeSet};
use stm::{TVar, Txn};
use txstruct::{BoostedHashMap, TxHashMap};

// txlint: conflict-graph
/// The multiset's declared conflict graph. `add` is blind (no observation
/// modes); `remove_one` reads the element's count before decrementing, so
/// it is both a key observer and a key writer and needs the reflexive
/// self-edge; `len` and `is_empty` are the whole-collection cardinality
/// observers.
pub static MULTISET_CONFLICT_GRAPH: ConflictGraph<'static> = ConflictGraph {
    class: "multiset",
    ops: &[
        op(
            "add",
            &[],
            &[
                UpdateEffect::KeyWrite,
                UpdateEffect::SizeChange,
                UpdateEffect::ZeroCross,
            ],
        ),
        op(
            "remove_one",
            &[ObsMode::Key],
            &[
                UpdateEffect::KeyWrite,
                UpdateEffect::SizeChange,
                UpdateEffect::ZeroCross,
            ],
        ),
        op("count", &[ObsMode::Key], &[]),
        op("len", &[ObsMode::Size], &[]),
        op("is_empty_primitive", &[ObsMode::Empty], &[]),
    ],
    edges: &[
        // Count observers vs writes of the same element; distinct elements
        // commute (blind adds never conflict with each other).
        edge(
            "count",
            "add",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "count",
            "remove_one",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "remove_one",
            "add",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "remove_one",
            "remove_one",
            ObsMode::Key,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        // Total-cardinality observers vs any count change.
        edge(
            "len",
            "add",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        edge(
            "len",
            "remove_one",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        // Emptiness primitive vs zero-crossings of the total count.
        edge(
            "is_empty_primitive",
            "add",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        edge(
            "is_empty_primitive",
            "remove_one",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
    ],
};

/// Per-transaction local state: buffered count deltas, the element locks
/// this transaction holds, and the buffered change to the total count.
pub(crate) struct MultisetLocal<T> {
    pub deltas: StripeMap<T, i64>,
    pub key_locks: StripeSet<T>,
    pub total_delta: i64,
}

impl<T> Default for MultisetLocal<T> {
    fn default() -> Self {
        MultisetLocal {
            deltas: StripeMap::default(),
            key_locks: StripeSet::default(),
            total_delta: 0,
        }
    }
}

/// The variant half of the multiset class: count-valued backend, the total
/// counter, and the striped lock tables.
pub(crate) struct MultisetClass<T, B> {
    pub(crate) backend: B,
    pub(crate) total: TVar<u64>,
    pub(crate) tables: ClassTables<T>,
}

impl<T, B> SemanticClass for MultisetClass<T, B>
where
    T: Clone + Eq + Hash + Send + Sync + 'static,
    B: MapBackend<T, u64>,
{
    type Local = MultisetLocal<T>;
    type RangeKey = T;

    fn name(&self) -> &'static str {
        "multiset"
    }

    fn global_stripe(&self) -> &GlobalStripe<T> {
        self.tables.global_stripe()
    }

    fn conflict_graph(&self) -> Option<&'static ConflictGraph<'static>> {
        Some(&MULTISET_CONFLICT_GRAPH)
    }

    /// See `MapClass::snapshot_capable`: versioned (TVar) backends serve
    /// snapshot reads, non-transactional ones fall back.
    fn snapshot_capable(&self) -> bool {
        <B as crate::backend::MapReadOps<T, u64>>::TRANSACTIONAL_READS
    }

    /// Commit handler: apply the buffered count deltas (clamped at zero —
    /// visibility was checked under the element lock, so a negative clamp
    /// only fires for doomed racers), doom observers of each changed
    /// element, then publish the total-count change in the global stripe.
    fn apply(&self, local: MultisetLocal<T>, htx: &mut Txn) {
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
        global.finish(|g| {
            g.size_moved(total_before as usize, total_after as usize);
        });
    }

    /// Abort handler: writes were only buffered — pure lock release.
    fn release(&self, local: MultisetLocal<T>, htx: &mut Txn) {
        self.tables
            .release_sweep(htx.handle().id(), local.key_locks.iter());
    }
}

impl<T, B> KeyedClass for MultisetClass<T, B>
where
    T: Clone + Eq + Hash + Send + Sync + 'static,
    B: MapBackend<T, u64>,
{
    type Key = T;

    fn key_tables(&self) -> &ClassTables<T> {
        &self.tables
    }

    fn held_keys(local: &mut MultisetLocal<T>) -> &mut StripeSet<T> {
        &mut local.key_locks
    }
}

/// A transactional multiset (counted bag) with synthesized semantic locks.
///
/// ```
/// use stm::atomic;
/// use txcollections::TransactionalMultiset;
///
/// let bag: TransactionalMultiset<&'static str> = TransactionalMultiset::new();
/// atomic(|tx| {
///     bag.add(tx, "a");
///     bag.add(tx, "a");
///     assert_eq!(bag.count(tx, &"a"), 2);
/// });
/// ```
pub struct TransactionalMultiset<T, B = TxHashMap<T, u64>>
where
    T: Clone + Eq + Hash + Send + Sync + 'static,
    B: MapBackend<T, u64>,
{
    core: SemanticCore<MultisetClass<T, B>>,
}

impl<T, B> Clone for TransactionalMultiset<T, B>
where
    T: Clone + Eq + Hash + Send + Sync + 'static,
    B: MapBackend<T, u64>,
{
    fn clone(&self) -> Self {
        TransactionalMultiset {
            core: self.core.clone(),
        }
    }
}

impl<T> TransactionalMultiset<T, TxHashMap<T, u64>>
where
    T: Clone + Eq + Hash + Send + Sync + 'static,
{
    /// Create a multiset over a fresh count-valued [`TxHashMap`].
    pub fn new() -> Self {
        Self::wrap(TxHashMap::new())
    }

    /// Create with an explicit lock-table stripe count (rounded up to a
    /// power of two; `1` recovers the unstriped design).
    pub fn with_stripes(nstripes: usize) -> Self {
        Self::wrap_with_stripes(TxHashMap::new(), nstripes)
    }
}

impl<T> TransactionalMultiset<T, BoostedHashMap<T, u64>>
where
    T: Clone + Eq + Hash + Send + Sync + 'static,
{
    /// Create over a fresh non-transactional [`BoostedHashMap`] (the
    /// boosted configuration; count cells live in the concurrent map, the
    /// `total` stays a TVar driven from the handler lane).
    pub fn boosted() -> Self {
        Self::wrap(BoostedHashMap::new())
    }
}

impl<T> Default for TransactionalMultiset<T, TxHashMap<T, u64>>
where
    T: Clone + Eq + Hash + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<T, B> TransactionalMultiset<T, B>
where
    T: Clone + Eq + Hash + Send + Sync + 'static,
    B: MapBackend<T, u64>,
{
    /// Wrap an existing count-valued backend.
    pub fn wrap(backend: B) -> Self {
        Self::wrap_with_stripes(backend, DEFAULT_STRIPES)
    }

    /// Wrap with an explicit stripe count.
    pub fn wrap_with_stripes(backend: B, nstripes: usize) -> Self {
        TransactionalMultiset {
            core: SemanticCore::new(MultisetClass {
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

    /// Buffer a count delta with a local undo (closed-nested rollback).
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

    /// Add one occurrence — a **blind** buffered increment: takes no
    /// semantic lock (nothing is observed), so concurrent adds always
    /// commute, even of the same element.
    pub fn add(&self, tx: &mut Txn, value: T) {
        self.add_n(tx, value, 1);
    }

    /// Add `n` occurrences (blind, buffered).
    pub fn add_n(&self, tx: &mut Txn, value: T, n: u64) {
        self.core.ensure_registered(tx);
        if n == 0 {
            return;
        }
        self.buffer_delta(tx, value, n as i64);
    }

    /// Visible count of `value` under this transaction's element lock:
    /// committed count (open-nested) plus the buffered delta.
    fn visible_count(&self, tx: &mut Txn, value: &T) -> i64 {
        self.core.take_key_lock(tx, value);
        let backend = &self.core.class().backend;
        let committed = tx.open_read(|otx| backend.get(otx, value)).unwrap_or(0) as i64;
        let delta = self
            .core
            .try_local(tx, |l| l.deltas.get(value).copied().unwrap_or(0))
            .unwrap_or(0);
        (committed + delta).max(0)
    }

    /// Remove one occurrence if present; returns whether one was removed.
    /// Observes the element's count (element lock) before decrementing, so
    /// it conflicts with any write of the same element — including another
    /// `remove_one` (the reflexive edge in the graph).
    pub fn remove_one(&self, tx: &mut Txn, value: &T) -> bool {
        self.core.ensure_registered(tx);
        if self.visible_count(tx, value) == 0 {
            return false;
        }
        self.buffer_delta(tx, value.clone(), -1);
        true
    }

    /// Number of occurrences of `value` (element lock).
    pub fn count(&self, tx: &mut Txn, value: &T) -> u64 {
        self.core.ensure_registered(tx);
        self.visible_count(tx, value) as u64
    }

    /// Whether at least one occurrence of `value` is visible.
    pub fn contains(&self, tx: &mut Txn, value: &T) -> bool {
        self.count(tx, value) > 0
    }

    /// Total number of occurrences across all elements (size lock:
    /// conflicts with any committing count change).
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

    /// Number of element locks currently registered (testing/diagnostics).
    pub fn locked_key_count(&self) -> usize {
        self.core.class().tables.locked_key_count()
    }
}
