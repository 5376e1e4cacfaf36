//! # txstruct — STM-backed data-structure substrates
//!
//! The paper wraps *existing* `java.util` collections (`HashMap`, `TreeMap`)
//! whose memory accesses become part of the enclosing transaction. That is
//! the crux of the problem being solved: a plain hash map used inside a long
//! transaction drags its `size` field and bucket memory into the
//! transaction's read/write set, so semantically independent operations
//! conflict.
//!
//! Rust has no transactional `java.util`, so this crate builds the
//! equivalents out of [`stm::TVar`] cells:
//!
//! * [`TxHashMap`] — chained hash table with a single transactional `size`
//!   field (the Figure-1 conflict artifact) and load-factor-driven resizing.
//! * [`TxTreeMap`] — a red–black tree following the `java.util.TreeMap`
//!   algorithm (parent pointers, null-as-black, rotation fix-ups), whose
//!   rebalancing writes are the Figure-2 conflict artifact.
//! * [`SegmentedTxHashMap`] — a `ConcurrentHashMap`-style segmented table
//!   (per-segment size fields), the prior-art alternative the paper argues
//!   only *statistically* reduces conflicts (§2.4).
//! * [`TxVecDeque`] — the queue substrate wrapped by `TransactionalQueue`.
//! * [`BoostedHashMap`] — the one deliberately **non**-transactional
//!   structure: a sharded concurrent hash map (per-shard mutexes, no TVars
//!   on the hot path) serving as the *boosted* backend, where isolation
//!   comes entirely from the wrapper's semantic locks plus commit/abort
//!   (undo) handlers.
//! * [`TxCounter`] — a shared counter offering the open-nested increment
//!   used for the paper's UID-generator discussion.
//! * [`LockHashMap`] / [`LockTreeMap`] — coarse-grained-lock counterparts
//!   standing in for the paper's Java `synchronized` baselines.
//!
//! All transactional types take `&mut stm::Txn` on every operation and are
//! usable both from [`stm::atomic`] bodies and (in direct mode) from commit
//! and abort handlers — which is exactly how `txcollections` drives them.

#![warn(missing_docs)]

mod boosted;
mod cell;
mod deque;
mod hashmap;
mod locked;
mod segmented;
mod treemap;

pub use boosted::BoostedHashMap;
pub use cell::TxCounter;
pub use deque::TxVecDeque;
pub use hashmap::TxHashMap;
pub use locked::{LockHashMap, LockTreeMap};
pub use segmented::SegmentedTxHashMap;
pub use treemap::TxTreeMap;
