//! `TransactionalIntervalMap` — span-keyed entries with semantic
//! concurrency control and **synthesized** locks.
//!
//! Every entry covers a half-open key interval `[lo, hi)`; queries are
//! stabbing (`stab`) and intersection (`overlapping`) reads. The class
//! exercises the span-valued slice of the lock protocol: readers take
//! **range locks** on the interval they observe, and a committing writer
//! dooms them with interval-vs-interval intersection (a span doom in the
//! kernel's global phase) — point-stab dooming would be
//! unsound here, because a reader's range can sit strictly inside a
//! written span without containing either endpoint. The committed store
//! is a persistent-by-cloning [`IntervalTree`] behind a `TVar`: the
//! commit handler clones, mutates, and republishes it, so speculative
//! readers always see a consistent snapshot. No hand-written mode table
//! exists for this class: lock modes come from
//! [`INTERVAL_MAP_CONFLICT_GRAPH`], validated against the dispatch matrix
//! at construction.

// txlint: semantic-tables
// txlint: fast-path
use crate::conflict_graph::{edge, op, ConflictGraph, Overlap};
use crate::interval::IntervalTree;
use crate::kernel::{GlobalPhase, SemanticClass, SemanticCore};
use crate::locks::{bounds_overlap, GlobalStripe, ObsMode, SemanticStats, UpdateEffect};
use std::hash::Hash;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stm::hash::StripeMap;
use stm::{TVar, Txn};

// txlint: conflict-graph
/// The interval map's declared conflict graph. `insert` is blind (the new
/// id cannot have been observed); `remove` observes the doomed interval's
/// span (`Range`) before buffering the removal, so it is both a range
/// observer and a key writer and needs the reflexive self-edge; `stab`
/// and `overlapping` observe the queried span; `len` and `is_empty` are
/// the whole-collection cardinality observers.
pub static INTERVAL_MAP_CONFLICT_GRAPH: ConflictGraph<'static> = ConflictGraph {
    class: "interval_map",
    ops: &[
        op(
            "insert",
            &[],
            &[
                UpdateEffect::KeyWrite,
                UpdateEffect::SizeChange,
                UpdateEffect::ZeroCross,
            ],
        ),
        op(
            "remove",
            &[ObsMode::Range],
            &[
                UpdateEffect::KeyWrite,
                UpdateEffect::SizeChange,
                UpdateEffect::ZeroCross,
            ],
        ),
        op("stab", &[ObsMode::Range], &[]),
        op("overlapping", &[ObsMode::Range], &[]),
        op("len", &[ObsMode::Size], &[]),
        op("is_empty_primitive", &[ObsMode::Empty], &[]),
    ],
    edges: &[
        // Span observers vs writes of intersecting spans; disjoint spans
        // commute.
        edge(
            "remove",
            "insert",
            ObsMode::Range,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "remove",
            "remove",
            ObsMode::Range,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "stab",
            "insert",
            ObsMode::Range,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "stab",
            "remove",
            ObsMode::Range,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "overlapping",
            "insert",
            ObsMode::Range,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        edge(
            "overlapping",
            "remove",
            ObsMode::Range,
            UpdateEffect::KeyWrite,
            Overlap::OnOverlap,
        ),
        // Cardinality observers vs entry-count changes.
        edge(
            "len",
            "insert",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        edge(
            "len",
            "remove",
            ObsMode::Size,
            UpdateEffect::SizeChange,
            Overlap::Always,
        ),
        // Emptiness primitive vs zero-crossings.
        edge(
            "is_empty_primitive",
            "insert",
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
    ],
};

fn above_lower<K: Ord>(k: &K, lower: &Bound<K>) -> bool {
    match lower {
        Bound::Unbounded => true,
        Bound::Included(l) => k >= l,
        Bound::Excluded(l) => k > l,
    }
}

fn below_upper<K: Ord>(k: &K, upper: &Bound<K>) -> bool {
    match upper {
        Bound::Unbounded => true,
        Bound::Included(u) => k <= u,
        Bound::Excluded(u) => k < u,
    }
}

/// Per-transaction local state: buffered insertions and removals plus the
/// buffered change to the entry count. A removal of an id this
/// transaction itself inserted simply drops the buffered insertion.
pub(crate) struct IntervalMapLocal<K, V> {
    pub adds: Vec<(u64, Bound<K>, Bound<K>, V)>,
    pub removes: StripeMap<u64, (Bound<K>, Bound<K>)>,
    pub delta: isize,
}

impl<K, V> Default for IntervalMapLocal<K, V> {
    fn default() -> Self {
        IntervalMapLocal {
            adds: Vec::new(),
            removes: StripeMap::default(),
            delta: 0,
        }
    }
}

/// The variant half of the interval-map class: the committed tree behind
/// a `TVar`, the id allocator, and the global stripe, which is the class's
/// whole lock table — every observation here is span- or
/// collection-valued, so nothing is attributable to a key shard.
pub(crate) struct IntervalMapClass<K, V>
where
    K: Clone + Ord + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    pub(crate) store: TVar<Arc<IntervalTree<K, (u64, V)>>>,
    pub(crate) next_id: AtomicU64,
    pub(crate) global: GlobalStripe<K>,
}

impl<K, V> SemanticClass for IntervalMapClass<K, V>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    type Local = IntervalMapLocal<K, V>;
    type RangeKey = K;

    fn name(&self) -> &'static str {
        "interval_map"
    }

    fn global_stripe(&self) -> &GlobalStripe<K> {
        &self.global
    }

    fn conflict_graph(&self) -> Option<&'static ConflictGraph<'static>> {
        Some(&INTERVAL_MAP_CONFLICT_GRAPH)
    }

    /// Commit handler: clone the committed tree, apply buffered removals
    /// and insertions, republish it, then doom span observers
    /// interval-vs-interval and the size/empty observers — all under the
    /// global stripe (this class holds no key-stripe locks).
    fn apply(&self, local: IntervalMapLocal<K, V>, htx: &mut Txn) {
        let snapshot = self.store.read(htx);
        let len_before = snapshot.len();
        let mut changed_spans: Vec<(Bound<K>, Bound<K>)> = Vec::new();
        let mut len_after = len_before;
        if !local.removes.is_empty() || !local.adds.is_empty() {
            let mut tree = (*snapshot).clone();
            if !local.removes.is_empty() {
                for (lo, hi, _) in tree.remove_by(|(iid, _)| local.removes.contains_key(iid)) {
                    changed_spans.push((lo, hi));
                }
            }
            for (iid, lo, hi, v) in local.adds {
                tree.insert(lo.clone(), hi.clone(), (iid, v));
                changed_spans.push((lo, hi));
            }
            len_after = tree.len();
            if !changed_spans.is_empty() {
                self.store.write(htx, Arc::new(tree));
            }
        }
        GlobalPhase::new(&self.global, htx.handle().id()).finish(|g| {
            for (lo, hi) in &changed_spans {
                g.doom_span(UpdateEffect::KeyWrite, lo, hi);
            }
            g.size_moved(len_before, len_after);
        });
    }

    /// Abort handler: writes were only buffered — pure lock release in the
    /// global phase.
    fn release(&self, _local: IntervalMapLocal<K, V>, htx: &mut Txn) {
        GlobalPhase::new(&self.global, htx.handle().id()).finish(|_| {});
    }
}

/// A transactional interval map: values keyed by half-open key spans
/// `[lo, hi)`, with stabbing and intersection queries under synthesized
/// semantic locks.
///
/// ```
/// use stm::atomic;
/// use txcollections::TransactionalIntervalMap;
///
/// let m: TransactionalIntervalMap<u32, &'static str> = TransactionalIntervalMap::new();
/// atomic(|tx| {
///     let a = m.insert(tx, 0, 10, "low");
///     m.insert(tx, 5, 15, "mid");
///     let hits = m.stab(tx, &7);
///     assert_eq!(hits.len(), 2);
///     assert!(m.remove(tx, a));
///     assert_eq!(m.stab(tx, &2).len(), 0);
/// });
/// ```
pub struct TransactionalIntervalMap<K, V>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    core: SemanticCore<IntervalMapClass<K, V>>,
}

impl<K, V> Clone for TransactionalIntervalMap<K, V>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn clone(&self) -> Self {
        TransactionalIntervalMap {
            core: self.core.clone(),
        }
    }
}

impl<K, V> Default for TransactionalIntervalMap<K, V>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> TransactionalIntervalMap<K, V>
where
    K: Clone + Ord + Eq + Hash + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// Create an empty interval map. It has no key stripes: every lock it
    /// takes is span- or collection-valued and lives in the global stripe.
    pub fn new() -> Self {
        TransactionalIntervalMap {
            core: SemanticCore::new(IntervalMapClass {
                store: TVar::new(Arc::new(IntervalTree::new())),
                next_id: AtomicU64::new(1),
                global: GlobalStripe::default(),
            }),
        }
    }

    /// Semantic-conflict counters for this instance.
    pub fn semantic_stats(&self) -> &SemanticStats {
        self.core.stats()
    }

    /// Number of span (range) locks currently outstanding (diagnostics).
    pub fn locked_range_count(&self) -> usize {
        self.core.class().global.with(|g| g.range_count())
    }

    /// Committed-tree snapshot via one flattened read (validated against
    /// the store's version stamp, no child transaction).
    fn snapshot(&self, tx: &mut Txn) -> Arc<IntervalTree<K, (u64, V)>> {
        let store = self.core.class().store.clone();
        tx.open_read(move |otx| store.read(otx))
    }

    /// Insert a value covering the half-open span `[lo, hi)`; returns the
    /// entry's id. Blind and buffered: a freshly allocated id cannot have
    /// been observed by anyone, so no semantic lock is taken and
    /// concurrent inserts always commute.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` (the span would be empty).
    pub fn insert(&self, tx: &mut Txn, lo: K, hi: K, value: V) -> u64 {
        self.core.ensure_registered(tx);
        assert!(
            lo < hi,
            "TransactionalIntervalMap spans must satisfy lo < hi"
        );
        let id = self.core.class().next_id.fetch_add(1, Ordering::Relaxed);
        let (lower, upper) = (Bound::Included(lo), Bound::Excluded(hi));
        self.core.with_local(tx, |l| {
            l.adds.push((id, lower, upper, value));
            l.delta += 1;
        });
        self.core.local_undo(tx, move |l| {
            l.adds.retain(|(aid, _, _, _)| *aid != id);
            l.delta -= 1;
        });
        id
    }

    /// Remove an entry by id; `true` if it was visible. Removing a
    /// committed entry observes its span (range lock), so it conflicts
    /// with any committing write of an intersecting span — including
    /// another `remove` of the same entry (the reflexive edge).
    pub fn remove(&self, tx: &mut Txn, id: u64) -> bool {
        self.core.ensure_registered(tx);
        // Already removed by us, or our own buffered insert (which we can
        // just drop — a txn-local entry needs no lock).
        let local_hit = self
            .core
            .try_local(tx, |l| {
                if l.removes.contains_key(&id) {
                    Some(None)
                } else if let Some(idx) = l.adds.iter().position(|(aid, _, _, _)| *aid == id) {
                    let entry = l.adds.remove(idx);
                    l.delta -= 1;
                    Some(Some(entry))
                } else {
                    None
                }
            })
            .flatten();
        match local_hit {
            Some(None) => return false,
            Some(Some(entry)) => {
                self.core.local_undo(tx, move |l| {
                    l.adds.push(entry);
                    l.delta += 1;
                });
                return true;
            }
            None => {}
        }
        // Committed entry: find its span, lock it, then verify it is still
        // present under the lock (a commit between probe and lock could
        // have removed it; once the lock is held, any such commit dooms
        // us instead).
        let span = self.find_span(tx, id);
        let Some((lower, upper)) = span else {
            return false;
        };
        self.core.take_range_lock(tx, lower.clone(), upper.clone());
        if self.find_span(tx, id).is_none() {
            return false;
        }
        self.core.with_local(tx, |l| {
            l.removes.insert(id, (lower, upper));
            l.delta -= 1;
        });
        self.core.local_undo(tx, move |l| {
            if l.removes.remove(&id).is_some() {
                l.delta += 1;
            }
        });
        true
    }

    /// The committed span of entry `id`, if present: one full-tree visit
    /// to map the app-level id to its node, then a span lookup.
    fn find_span(&self, tx: &mut Txn, id: u64) -> Option<(Bound<K>, Bound<K>)> {
        let tree = self.snapshot(tx);
        let mut node_id = None;
        tree.intersecting(
            &Bound::Unbounded,
            &Bound::Unbounded,
            &mut |nid, (iid, _)| {
                if *iid == id {
                    node_id = Some(nid);
                }
            },
        );
        let nid = node_id?;
        tree.entries()
            .into_iter()
            .find(|(eid, _, _)| *eid == nid)
            .map(|(_, lo, hi)| (lo, hi))
    }

    /// All visible entries whose span contains `point`, as `(id, value)`
    /// pairs (range lock on the degenerate span `[point, point]`).
    pub fn stab(&self, tx: &mut Txn, point: &K) -> Vec<(u64, V)> {
        self.core.ensure_registered(tx);
        self.core.take_range_lock(
            tx,
            Bound::Included(point.clone()),
            Bound::Included(point.clone()),
        );
        let tree = self.snapshot(tx);
        let mut out: Vec<(u64, V)> = Vec::new();
        tree.stab(point, &mut |_, (iid, v)| out.push((*iid, v.clone())));
        self.merge_local(tx, out, |lo, hi| {
            above_lower(point, lo) && below_upper(point, hi)
        })
    }

    /// All visible entries whose span intersects `[lo, hi)`, as
    /// `(id, value)` pairs (range lock on the queried span).
    pub fn overlapping(&self, tx: &mut Txn, lo: K, hi: K) -> Vec<(u64, V)> {
        self.core.ensure_registered(tx);
        let (lower, upper) = (Bound::Included(lo), Bound::Excluded(hi));
        self.core.take_range_lock(tx, lower.clone(), upper.clone());
        let tree = self.snapshot(tx);
        let mut out: Vec<(u64, V)> = Vec::new();
        tree.intersecting(&lower, &upper, &mut |_, (iid, v)| {
            out.push((*iid, v.clone()))
        });
        self.merge_local(tx, out, |l, u| bounds_overlap(&lower, &upper, l, u))
    }

    /// Filter buffered removals out of a committed result set and append
    /// the buffered insertions the span predicate admits.
    fn merge_local(
        &self,
        tx: &mut Txn,
        committed: Vec<(u64, V)>,
        admit: impl Fn(&Bound<K>, &Bound<K>) -> bool,
    ) -> Vec<(u64, V)> {
        let mut out = committed;
        let merged = self.core.try_local(tx, |l| {
            let committed = std::mem::take(&mut out);
            let mut out: Vec<(u64, V)> = committed
                .into_iter()
                .filter(|(id, _)| !l.removes.contains_key(id))
                .collect();
            for (id, lo, hi, v) in &l.adds {
                if admit(lo, hi) {
                    out.push((*id, v.clone()));
                }
            }
            out
        });
        merged.unwrap_or(out)
    }

    /// Number of visible entries (size lock).
    pub fn len(&self, tx: &mut Txn) -> usize {
        self.core.ensure_registered(tx);
        self.core.take_point_lock(tx, ObsMode::Size);
        let committed = self.snapshot(tx).len() as isize;
        let delta = self.core.try_local(tx, |l| l.delta).unwrap_or(0);
        (committed + delta).max(0) as usize
    }

    /// `len() == 0` via the size lock.
    pub fn is_empty(&self, tx: &mut Txn) -> bool {
        self.len(tx) == 0
    }

    /// Emptiness as a primitive with its own zero-crossing lock (§5.1):
    /// conflicts only when the entry count moves to or from zero.
    pub fn is_empty_primitive(&self, tx: &mut Txn) -> bool {
        self.core.ensure_registered(tx);
        self.core.take_point_lock(tx, ObsMode::Empty);
        let committed = self.snapshot(tx).len() as isize;
        let delta = self.core.try_local(tx, |l| l.delta).unwrap_or(0);
        (committed + delta) <= 0
    }
}
