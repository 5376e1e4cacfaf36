//! # txcollections — Transactional Collection Classes
//!
//! This crate is the primary contribution of the reproduced paper,
//! *Transactional Collection Classes* (Carlstrom, McDonald, Carbin,
//! Kozyrakis, Olukotun — PPoPP 2007): collection wrappers that let
//! **long-running memory transactions** operate on shared data structures
//! without the unnecessary memory-level conflicts that data-structure
//! internals (hash-table size fields, tree rotations) otherwise cause —
//! while preserving atomicity, isolation and serializability at the level
//! of the *abstract data type*.
//!
//! ## The mechanism: semantic concurrency control via multi-level transactions
//!
//! * Reads of the underlying structure happen in **open-nested
//!   transactions** (no memory dependency in the parent) and take
//!   **semantic locks** on the abstract state they observed (a key, the
//!   size, a key range, an endpoint, emptiness).
//! * Writes are buffered in transaction-local state.
//! * A **commit handler** applies the buffer and *dooms* (program-directed
//!   abort) every transaction holding a semantic lock that the applied
//!   changes invalidate; an **abort handler** compensates, releasing locks
//!   and discarding buffers.
//!
//! Responsibility for isolation moves from the memory system to the
//! abstract data type — and because the wrapper still buffers writes until
//! commit, *multiple operations still compose atomically*, which plain open
//! nesting cannot offer.
//!
//! ## The classes
//!
//! | Type | Paper section | Semantic locks |
//! |------|---------------|----------------|
//! | [`TransactionalMap`] | §3.1 | key locks, size lock (+ `isEmpty` zero-crossing lock, §5.1) |
//! | [`TransactionalSortedMap`] | §3.2 | + range locks, first/last endpoint locks |
//! | [`TransactionalQueue`] | §3.3 | empty lock only (reduced isolation by design) |
//! | [`TransactionalSet`] / [`TransactionalSortedSet`] | §5.1 | via the maps |
//! | [`TransactionalMultiset`] | §5.1 extension | key locks, size lock, empty lock — **synthesized** |
//! | [`TransactionalPriorityQueue`] | §3.2 extension | key locks, first lock, size/empty locks — **synthesized** |
//! | [`TransactionalIntervalMap`] | §3.2 extension | range locks (span-valued), size/empty locks — **synthesized** |
//! | [`OpenNestedCounter`] / [`UidGenerator`] | §6.3 | none (isolation deliberately forgone) |
//!
//! ## Declarative conflict graphs
//!
//! Every class declares its operation-level conflict graph as plain data
//! ([`ConflictGraph`]): which abstract properties each operation observes
//! ([`ObsMode`]), which it updates ([`UpdateEffect`]), and which
//! observer/updater pairs conflict — point-wise ([`Overlap::OnOverlap`])
//! or unconditionally ([`Overlap::Always`]). The kernel *synthesizes* the
//! lock-mode compatibility matrix from these declarations
//! ([`synthesize`], [`generated_matrix`]) — [`mode_compatible`], the
//! single dispatch point for every doom decision, is now generated data,
//! while the original hand-written table survives as the oracle
//! ([`mode_compatible_spec`]) that the synthesized matrix is checked
//! against exhaustively (all 84 cells) in CI and at every core
//! construction. The three newest classes (multiset, priority queue,
//! interval map) never had a hand-written table at all: their locks exist
//! *only* because their declarations synthesize them.
//!
//! ## Serializability guidelines (paper §5)
//!
//! When building your own transactional class on these primitives (the
//! [`SemanticClass`] kernel discharges the registration/ordering
//! obligations for you — see that trait and `examples/custom_class.rs`):
//!
//! 1. Read underlying state only inside open-nested transactions that also
//!    take the appropriate semantic locks ([`stm::Txn::open`]).
//! 2. Write underlying state only from the commit handler — implement
//!    [`SemanticClass::apply`], which [`SemanticCore`] runs in direct mode
//!    under the handler lane, serialized with every other handler.
//! 3. Buffer writes in transaction-local state; if a write logically reads
//!    too (e.g. returns the old value), take the read's semantic lock.
//! 4. The abort handler must release semantic locks and clear local buffers
//!    — implement [`SemanticClass::release`]; [`SemanticCore`] registers
//!    the pair on first use.
//! 5. The commit handler must apply the buffer, doom conflicting lock
//!    holders, then behave like the abort handler (clear and release).
//!
//! Reduced isolation (when serializability is deliberately traded for
//! concurrency, as in [`TransactionalQueue`]) is obtained by violating rule
//! 2: writing underlying state from open-nested transactions, with abort
//! handlers as compensation.
//!
//! ## Example
//!
//! ```
//! use stm::atomic;
//! use txcollections::TransactionalMap;
//!
//! let map: TransactionalMap<String, u64> = TransactionalMap::new();
//! // A compound, atomic read-modify-write over two keys — scalable because
//! // transactions touching other keys do not conflict with this one.
//! atomic(|tx| {
//!     let a = map.get(tx, &"alice".to_string()).unwrap_or(0);
//!     map.put(tx, "alice".to_string(), a + 1);
//!     map.put_discard(tx, "last_writer".to_string(), 42);
//! });
//! ```

#![warn(missing_docs)]

mod backend;
mod conflict_graph;
mod eager_map;
pub mod interval;
mod interval_map;
mod kernel;
mod locks;
mod map;
mod multiset;
mod priority_queue;
mod queue;
mod set;
mod snapshot;
mod sorted_map;

pub use backend::{
    MapApplyOps, MapBackend, MapReadOps, MapUndo, QueueApplyOps, QueueBackend, QueueReadOps,
    SortedMapBackend, SortedReadOps, UndoOp,
};
pub use conflict_graph::{
    declared_graphs, derive_edges, edge, generated_matrix, keyed_mode, op, reachable_cells,
    synthesize, validate, ConflictGraph, EdgeDecl, OpDecl, Overlap, Synthesis, SynthesizedMatrix,
};
pub use eager_map::{EagerPolicy, EagerTransactionalMap, EAGER_MAP_CONFLICT_GRAPH};
pub use interval_map::{TransactionalIntervalMap, INTERVAL_MAP_CONFLICT_GRAPH};
pub use kernel::{
    CachedPoint, ClassTables, GlobalPhase, KeyCtx, PointCtx, SemanticClass, SemanticCore,
};
pub use locks::{
    mode_compatible, mode_compatible_spec, ObsMode, Owner, SemanticStats, UpdateEffect,
    DEFAULT_STRIPES,
};
pub use map::{TransactionalMap, TxMapIter, MAP_CONFLICT_GRAPH};
pub use multiset::{TransactionalMultiset, MULTISET_CONFLICT_GRAPH};
pub use priority_queue::{TransactionalPriorityQueue, PRIORITY_QUEUE_CONFLICT_GRAPH};
pub use queue::{Channel, TransactionalQueue, QUEUE_CONFLICT_GRAPH};
pub use set::{TransactionalSet, TransactionalSortedSet, SET_CONFLICT_GRAPH};
pub use sorted_map::{
    SortedMapView, TransactionalSortedMap, TxSortedIter, SORTED_MAP_CONFLICT_GRAPH,
};
pub use stm::hash::{key_hash64, stripe_index, StripeHasher};

use stm::Txn;

/// A shared counter whose updates run open-nested: parents carry no
/// dependency on it, trading serializability for scalability exactly as the
/// paper's SPECjbb "Atomos Open" configuration does for its global counters
/// (§6.3). Re-exported view over [`txstruct::TxCounter`].
#[derive(Clone, Default)]
pub struct OpenNestedCounter {
    counter: txstruct::TxCounter,
}

impl OpenNestedCounter {
    /// Create with an initial value.
    pub fn new(initial: i64) -> Self {
        OpenNestedCounter {
            counter: txstruct::TxCounter::new(initial),
        }
    }

    /// Open-nested add; returns the pre-add value. Aborted parents leave the
    /// increment in place (a gap).
    pub fn add(&self, tx: &mut Txn, delta: i64) -> i64 {
        self.counter.add_open(tx, delta)
    }

    /// Open-nested add with a compensating abort handler restoring the
    /// value (but not the ordering) on abort.
    pub fn add_compensated(&self, tx: &mut Txn, delta: i64) -> i64 {
        self.counter.add_open_compensated(tx, delta)
    }

    /// Committed value.
    pub fn get_committed(&self) -> i64 {
        self.counter.get_committed()
    }
}

/// A unique-id generator built on an open-nested counter: ids are unique and
/// monotonic in issue order, but aborted transactions leave gaps — the
/// database community's classic example of trading serializability for
/// concurrency (paper §1, citing Gray & Reuter).
#[derive(Clone, Default)]
pub struct UidGenerator {
    counter: txstruct::TxCounter,
}

impl UidGenerator {
    /// Create a generator starting at `first`.
    pub fn starting_at(first: i64) -> Self {
        UidGenerator {
            counter: txstruct::TxCounter::new(first),
        }
    }

    /// Draw the next unique id (open-nested: never a conflict source).
    pub fn next(&self, tx: &mut Txn) -> i64 {
        self.counter.next_uid(tx)
    }

    /// Fully serializable id draw for comparison: the parent transaction
    /// depends on the counter, making it a conflict hotspot.
    pub fn next_serializable(&self, tx: &mut Txn) -> i64 {
        self.counter.add(tx, 1)
    }

    /// The next id that would be issued (committed view).
    pub fn peek_committed(&self) -> i64 {
        self.counter.get_committed()
    }
}
