//! `TransactionalQueue` — a transactional work queue with **selectively
//! reduced isolation** (paper §3.3).
//!
//! Inspired by Delaunay-mesh work queues: workers take work items and may add
//! new ones while processing. Plain open nesting (add/remove immediately)
//! breaks atomicity — "if transactions abort, the new work added to the
//! queue is invalid, but may be impossible to recover since another
//! transaction may have dequeued it". `TransactionalQueue` fixes both
//! directions:
//!
//! * **put** buffers the item locally (`addBuffer`) and publishes it in the
//!   commit handler, so work produced by an aborted transaction is never
//!   seen by anyone;
//! * **poll/take** removes the item from the shared queue *immediately*
//!   (open-nested — this is the isolation reduction: other transactions can
//!   observe the queue shrink before we commit) and records it in
//!   `removeBuffer`; the abort handler returns it to the queue, so work is
//!   never lost.
//!
//! Because ordering is deliberately not guaranteed ("to improve concurrency,
//! we do not maintain strict ordering on the queue"), the only semantic
//! conflict is emptiness: a transaction that observed an empty queue
//! (null `peek`/`poll`) holds the **empty lock** and is doomed by any commit
//! or abort that makes the queue non-empty (Tables 7–8).
//!
//! The queue has no per-key locks, so its whole semantic table (the empty
//! and full locker sets) *is* a global stripe — one counted mutex around
//! the same whole-collection lock table every class has — while the
//! per-transaction buffers live in the transaction, like every other
//! collection's.

// txlint: semantic-tables
// txlint: fast-path
use crate::backend::QueueBackend;
use crate::conflict_graph::{edge, op, ConflictGraph, Overlap};
use crate::kernel::{GlobalPhase, SemanticClass, SemanticCore};
use crate::locks::{GlobalStripe, ObsMode, SemanticStats, UpdateEffect};
use std::marker::PhantomData;
use stm::Txn;
use txstruct::TxVecDeque;

// txlint: conflict-graph
/// Paper Tables 7–8 as a declared conflict graph. The queue is
/// deliberately unordered (§3.3) — element observations take no key locks,
/// so the graph has only the whole-collection emptiness and fullness
/// modes: `poll`/`peek` returning null observe `Empty` and are doomed by
/// zero-crossing commits; `offer` returning false (and a blocking `put` on
/// a full queue) observes `Full` and is doomed by consuming commits.
pub static QUEUE_CONFLICT_GRAPH: ConflictGraph<'static> = ConflictGraph {
    class: "queue",
    ops: &[
        op(
            "put",
            &[ObsMode::Full],
            &[UpdateEffect::SizeChange, UpdateEffect::ZeroCross],
        ),
        op(
            "offer",
            &[ObsMode::Full],
            &[UpdateEffect::SizeChange, UpdateEffect::ZeroCross],
        ),
        op(
            "poll",
            &[ObsMode::Empty],
            &[
                UpdateEffect::SizeChange,
                UpdateEffect::ZeroCross,
                UpdateEffect::Consume,
            ],
        ),
        op("peek", &[ObsMode::Empty], &[]),
    ],
    edges: &[
        // Emptiness observers vs zero-crossing commits (Table 7): a put
        // making the queue non-empty (or a poll abort restoring items)
        // dooms null-observers; non-crossing size changes commute.
        edge(
            "poll",
            "put",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        edge(
            "poll",
            "offer",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        edge(
            "poll",
            "poll",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        edge(
            "peek",
            "put",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        edge(
            "peek",
            "offer",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        edge(
            "peek",
            "poll",
            ObsMode::Empty,
            UpdateEffect::ZeroCross,
            Overlap::Always,
        ),
        // Fullness observers vs consuming commits (Table 8): freed
        // capacity dooms `offer() -> false` / a blocked `put`.
        edge(
            "put",
            "poll",
            ObsMode::Full,
            UpdateEffect::Consume,
            Overlap::Always,
        ),
        edge(
            "offer",
            "poll",
            ObsMode::Full,
            UpdateEffect::Consume,
            Overlap::Always,
        ),
    ],
};

/// The `Channel` interface from `util.concurrent` (paper §3.3): the minimal
/// enqueue/dequeue surface of a concurrent work queue, deliberately omitting
/// random access.
pub trait Channel<T> {
    /// Enqueue an item (published at commit).
    fn put(&self, tx: &mut Txn, item: T);
    /// Enqueue an item; `true` on success (always, for unbounded queues).
    fn offer(&self, tx: &mut Txn, item: T) -> bool {
        self.put(tx, item);
        true
    }
    /// Dequeue an item, or `None` if the queue is empty (taking the empty
    /// lock in that case).
    fn poll(&self, tx: &mut Txn) -> Option<T>;
    /// Observe the head without removing it, or `None` if empty (taking the
    /// empty lock in that case).
    fn peek(&self, tx: &mut Txn) -> Option<T>;
}

/// Per-transaction local queue state (paper Table 9, with the frame-abort
/// "return" mark needed for closed-nesting compensation).
struct QueueLocal<T> {
    /// Items this transaction enqueued; published by the commit handler.
    add_buffer: Vec<T>,
    /// Items this transaction dequeued from the shared queue, in poll
    /// order. The flag marks an item dequeued inside a closed-nested frame
    /// that later aborted: it must go back to the shared queue whether the
    /// top-level transaction commits or aborts. The abort handler returns
    /// every item, so the flags cannot change what an abort leaves behind.
    remove_buffer: Vec<(T, bool)>,
}

impl<T> Default for QueueLocal<T> {
    fn default() -> Self {
        QueueLocal {
            add_buffer: Vec::new(),
            remove_buffer: Vec::new(),
        }
    }
}

impl<T> QueueLocal<T> {
    /// Items this transaction will put back at commit: its additions plus
    /// the items of aborted frames.
    fn published(&self) -> usize {
        self.add_buffer.len() + self.remove_buffer.iter().filter(|(_, ret)| *ret).count()
    }
}

/// The variant half of the queue class (kernel [`SemanticClass`]): the
/// wrapped backend, the optional capacity bound, and the queue's whole
/// semantic table — its empty and full lockers, in a global stripe (the
/// queue has no per-key locks, so its table *is* a global stripe).
struct QueueClass<T, B> {
    backend: B,
    /// `None` = unbounded (the paper's queue); `Some(n)` = bounded Channel
    /// with full-lock semantics symmetric to the empty lock.
    capacity: Option<usize>,
    global: GlobalStripe<()>,
    _item: PhantomData<fn() -> T>,
}

impl<T, B> SemanticClass for QueueClass<T, B>
where
    T: Clone + Send + Sync + 'static,
    B: QueueBackend<T>,
{
    type Local = QueueLocal<T>;
    type RangeKey = ();

    fn name(&self) -> &'static str {
        "queue"
    }

    fn global_stripe(&self) -> &GlobalStripe<()> {
        &self.global
    }

    fn conflict_graph(&self) -> Option<&'static ConflictGraph<'static>> {
        Some(&QUEUE_CONFLICT_GRAPH)
    }

    /// See `MapClass::snapshot_capable`: versioned (TVar) backends serve
    /// snapshot reads, non-transactional ones fall back.
    fn snapshot_capable(&self) -> bool {
        <B as crate::backend::QueueReadOps<T>>::TRANSACTIONAL_READS
    }

    /// Commit handler: publish the additions and the items of aborted
    /// frames, then doom emptiness observers on a zero-crossing publish and
    /// fullness observers on a permanent consume (Tables 7-8).
    fn apply(&self, local: QueueLocal<T>, htx: &mut Txn) {
        let made_nonempty = local.published() > 0;
        // Items permanently consumed: fullness observations are invalidated.
        let consumed = local.remove_buffer.iter().any(|(_, ret)| !ret);
        // Items un-consumed by aborted frames go back near the front, in
        // poll order; new work appends at the back.
        for (item, _) in local
            .remove_buffer
            .into_iter()
            .rev()
            .filter(|(_, ret)| *ret)
        {
            self.backend.push_front(htx, item);
        }
        for item in local.add_buffer {
            self.backend.push_back(htx, item);
        }
        // The Tables 7-8 oracle routes the dooms: an emptiness observation
        // is invalidated exactly by a zero-crossing publish, a fullness
        // observation exactly by permanent consumption.
        GlobalPhase::new(&self.global, htx.handle().id()).finish(|g| {
            if made_nonempty {
                g.doom(UpdateEffect::ZeroCross);
            }
            if consumed {
                g.doom(UpdateEffect::Consume);
            }
        });
    }

    /// Abort handler (compensation): return everything we dequeued, in
    /// poll order at the front, drop everything we only buffered, and
    /// release our empty/full locks. The return flags (the only thing a
    /// closed-frame undo of a poll changes) are ignored, so the post-abort
    /// queue does not depend on which undos ran.
    fn release(&self, local: QueueLocal<T>, htx: &mut Txn) {
        let restored = !local.remove_buffer.is_empty();
        for (item, _) in local.remove_buffer.into_iter().rev() {
            self.backend.push_front(htx, item);
        }
        GlobalPhase::new(&self.global, htx.handle().id()).finish(|g| {
            if restored {
                // The queue may have gone from empty back to non-empty:
                // emptiness observers are no longer serializable.
                g.doom(UpdateEffect::ZeroCross);
            }
        });
    }
}

/// A transactional work queue wrapping any [`QueueBackend`]; see the module
/// docs for the isolation contract.
pub struct TransactionalQueue<T, B = TxVecDeque<T>>
where
    T: Clone + Send + Sync + 'static,
    B: QueueBackend<T>,
{
    core: SemanticCore<QueueClass<T, B>>,
}

impl<T, B> Clone for TransactionalQueue<T, B>
where
    T: Clone + Send + Sync + 'static,
    B: QueueBackend<T>,
{
    fn clone(&self) -> Self {
        TransactionalQueue {
            core: self.core.clone(),
        }
    }
}

impl<T> TransactionalQueue<T, TxVecDeque<T>>
where
    T: Clone + Send + Sync + 'static,
{
    /// Create a `TransactionalQueue` over a fresh [`TxVecDeque`].
    pub fn new() -> Self {
        Self::wrap(TxVecDeque::new())
    }

    /// Create a **bounded** queue: `offer` fails (taking the full lock) when
    /// `capacity` items are visible, and `put` blocks (aborts and retries).
    /// The full lock mirrors the empty lock of Tables 7–8: a transaction
    /// that observed fullness is doomed by any commit that permanently
    /// consumes items.
    pub fn bounded(capacity: usize) -> Self {
        Self::wrap_bounded(TxVecDeque::new(), capacity)
    }
}

impl<T> Default for TransactionalQueue<T, TxVecDeque<T>>
where
    T: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<T, B> TransactionalQueue<T, B>
where
    T: Clone + Send + Sync + 'static,
    B: QueueBackend<T>,
{
    fn build(backend: B, capacity: Option<usize>) -> Self {
        TransactionalQueue {
            core: SemanticCore::new(QueueClass {
                backend,
                capacity,
                global: GlobalStripe::default(),
                _item: PhantomData,
            }),
        }
    }

    /// Wrap an existing queue implementation (unbounded).
    pub fn wrap(backend: B) -> Self {
        Self::build(backend, None)
    }

    /// Wrap an existing queue implementation with a capacity bound.
    pub fn wrap_bounded(backend: B, capacity: usize) -> Self {
        Self::build(backend, Some(capacity))
    }

    /// Semantic-conflict counters (only `empty_conflicts` and
    /// `full_conflicts` are used here).
    pub fn semantic_stats(&self) -> &SemanticStats {
        self.core.stats()
    }

    /// The number of items this transaction would see: committed queue plus
    /// everything it will publish at commit.
    fn visible_len(&self, tx: &mut Txn) -> usize {
        let backend = &self.core.class().backend;
        let committed = tx.open_read(|otx| backend.len(otx));
        committed + self.core.try_local(tx, |l| l.published()).unwrap_or(0)
    }

    /// Dequeue with blocking-take semantics in the threaded runtime: if the
    /// queue is empty, abort and retry the whole transaction (the STM analog
    /// of `Channel.take` blocking). Use [`Channel::poll`] for non-blocking.
    pub fn take_or_retry(&self, tx: &mut Txn) -> T {
        match self.poll(tx) {
            Some(item) => item,
            None => stm::abort_and_retry(),
        }
    }

    /// Number of committed items currently in the underlying queue
    /// (diagnostic; takes no semantic locks).
    pub fn committed_len(&self, tx: &mut Txn) -> usize {
        let backend = &self.core.class().backend;
        tx.open_read(|otx| backend.len(otx))
    }
}

impl<T, B> Channel<T> for TransactionalQueue<T, B>
where
    T: Clone + Send + Sync + 'static,
    B: QueueBackend<T>,
{
    fn put(&self, tx: &mut Txn, item: T) {
        self.core.ensure_registered(tx);
        if let Some(cap) = self.core.class().capacity {
            if self.visible_len(tx) >= cap {
                // Blocking semantics in the threaded runtime: observe
                // fullness (full lock) and retry the whole transaction; a
                // consuming commit dooms/wakes us.
                self.core.take_point_lock(tx, ObsMode::Full);
                stm::abort_and_retry();
            }
        }
        let index = self.core.with_local(tx, |l| {
            l.add_buffer.push(item);
            l.add_buffer.len() - 1
        });
        self.core
            .local_undo(tx, move |l| l.add_buffer.truncate(index));
    }

    fn offer(&self, tx: &mut Txn, item: T) -> bool {
        self.core.ensure_registered(tx);
        if let Some(cap) = self.core.class().capacity {
            if self.visible_len(tx) >= cap {
                // Observed fullness: semantic read of the "full" property.
                self.core.take_point_lock(tx, ObsMode::Full);
                return false;
            }
        }
        self.put(tx, item);
        true
    }

    fn poll(&self, tx: &mut Txn) -> Option<T> {
        self.core.ensure_registered(tx);
        // Reduced isolation: remove from the shared queue immediately. A
        // mutating open — this one cannot flatten (`open_read` is read-only
        // by contract) and stays a real open-nested child.
        let backend = &self.core.class().backend;
        if let Some(item) = tx.open(|otx| backend.pop_front(otx)) {
            let index = self.core.with_local(tx, |l| {
                l.remove_buffer.push((item.clone(), false));
                l.remove_buffer.len() - 1
            });
            // If an enclosing closed frame aborts, the item must still reach
            // the queue again: mark it for return at commit as well.
            self.core
                .local_undo(tx, move |l| l.remove_buffer[index].1 = true);
            return Some(item);
        }
        // Shared queue empty: consume our own pending additions.
        let own = self
            .core
            .try_local(tx, |l| {
                if l.add_buffer.is_empty() {
                    None
                } else {
                    Some(l.add_buffer.remove(0))
                }
            })
            .flatten();
        if let Some(item) = own {
            let item2 = item.clone();
            self.core
                .local_undo(tx, move |l| l.add_buffer.insert(0, item2));
            return Some(item);
        }
        // Observed emptiness: semantic read of the "empty" property.
        self.core.take_point_lock(tx, ObsMode::Empty);
        None
    }

    fn peek(&self, tx: &mut Txn) -> Option<T> {
        self.core.ensure_registered(tx);
        let backend = &self.core.class().backend;
        if let Some(item) = tx.open_read(|otx| backend.peek_front(otx)) {
            // A non-null peek never conflicts (Table 7: the queue is
            // unordered, so observing *an* element commutes with puts and
            // with takes of other elements).
            return Some(item);
        }
        let own = self
            .core
            .try_local(tx, |l| l.add_buffer.first().cloned())
            .flatten();
        if own.is_some() {
            return own;
        }
        self.core.take_point_lock(tx, ObsMode::Empty);
        None
    }
}
