//! # stm — an optimistic software transactional memory with rich nesting semantics
//!
//! This crate is the transactional-memory substrate for the reproduction of
//! *Transactional Collection Classes* (Carlstrom et al., PPoPP 2007). The
//! paper's collection classes require a specific set of transactional
//! semantics (paper §4), all of which are provided here:
//!
//! * **Closed-nested transactions with partial rollback** — [`Txn::closed`]
//!   pushes a nesting frame whose read/write sets can be discarded and
//!   re-executed without aborting the parent.
//! * **Open-nested transactions** — [`Txn::open`] runs a sub-transaction that
//!   commits its memory effects immediately, *before* the parent commits, and
//!   leaves no read or write dependencies in the parent. This is the enabling
//!   mechanism for semantic concurrency control.
//! * **Commit and abort handlers** — [`Txn::on_commit_top`] /
//!   [`Txn::on_abort_top`] register callbacks that run when the *top-level*
//!   transaction commits or aborts; handlers registered inside a nested frame
//!   via [`Txn::on_commit`] / [`Txn::on_abort`] are promoted to the parent on
//!   nested commit and discarded on nested abort, exactly as the paper
//!   specifies. A collection instance instead enlists one typed
//!   [`Participant`] per attempt ([`Txn::enlist`]), which holds its buffered
//!   state and whose `commit` or `abort` is its handler pair.
//! * **Program-directed (remote) abort** — every top-level transaction owns a
//!   [`TxHandle`]; another transaction's commit handler may call
//!   [`TxHandle::doom`] to abort it, which is how semantic lock conflicts are
//!   enforced.
//! * **Two-phase commit** — validation happens before the point of no return;
//!   commit handlers and participants run in the commit phase, serialized
//!   under a dedicated **handler lane** so that their direct updates can
//!   never conflict with another transaction's handlers ("the commit
//!   handler ... can be replayed without rolling back the parent"
//!   degenerates to conflict-freedom under the lane).
//!
//! The concurrency-control algorithm is TL2-flavored: a global fetch-and-add
//! version clock, a per-[`TVar`] versioned commit lock, a read-set validated
//! at commit time, and a redo-log write-set published under the write set's
//! own per-var locks (acquired in `VarId` order) — transactions with disjoint
//! write sets commit fully in parallel; there is no global commit mutex.
//! Reads perform incremental timestamp extension so long-running transactions
//! do not abort spuriously. See `docs/PROTOCOL.md` for the commit protocol
//! and the lock-order proof.
//!
//! Two execution drivers share this machinery:
//!
//! * the **threaded runtime** ([`atomic`]) — real threads, retry loops,
//!   contention management; used by the examples and integration tests;
//! * the **prepared API** ([`speculate`], [`PreparedTxn`]) — used by the
//!   `sim` crate's deterministic chip-multiprocessor simulator, which drives
//!   speculation, commit ordering, and TCC-style violation itself.
//!
//! ```
//! use stm::{atomic, TVar};
//!
//! let balance = TVar::new(100i64);
//! let audit = TVar::new(0i64);
//! atomic(|tx| {
//!     let b = balance.read(tx);
//!     balance.write(tx, b - 30);
//!     let a = audit.read(tx);
//!     audit.write(tx, a + 30);
//! });
//! assert_eq!(atomic(|tx| balance.read(tx)), 70);
//! ```

#![warn(missing_docs)]

mod clock;
mod contention;
mod cost;
mod epoch;
mod handle;
mod handlers;
pub mod hash;
mod interrupt;
pub mod metrics;
mod runtime;
pub mod trace;
mod tvar;
mod txn;

pub use contention::{BackoffPolicy, ContentionManager};
pub use cost::{add_cost, current_cost, reset_cost, take_cost, MEM_ACCESS_COST};
pub use handle::{TxHandle, TxState};
pub use handlers::Participant;
pub use interrupt::{abort_and_retry, user_abort, AbortCause};
pub use metrics::{global_stats, StatsSnapshot};
pub use runtime::{atomic, atomic_read, atomic_with, speculate, PreparedTxn, RunOpts};
pub use tvar::{label_count, label_owner, var_label, CellOwner, TCell, TVar, VarId};
pub use txn::{Txn, TxnMode, SPARE_FRAME_ENTRIES};
