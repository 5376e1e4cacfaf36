//! Commit and abort handlers, and commit participants.
//!
//! Handlers are the cleanup/publication mechanism of multi-level transactions
//! (paper §4, "Commit and abort handlers"). A handler receives the
//! transaction context in **direct mode** ([`crate::TxnMode::Direct`]): reads
//! return committed state (each read is per-var atomic and waits out
//! in-flight publishes) and writes publish immediately (per-var commit lock
//! plus a fresh clock version each), because handlers run while the **handler
//! lane** is held — after the owning transaction's point of no return (commit
//! handlers) or after its memory rollback (abort handlers). The lane
//! serializes all handler execution and all writing open-nested commits, so a
//! handler's updates can never conflict with another transaction's handlers,
//! which subsumes the paper's "commit handlers run closed-nested so conflicts
//! replay only the handler": under the lane the replay case simply cannot
//! arise. Plain memory commits do *not* take the lane — they publish in
//! parallel under their own write set's var locks.
//!
//! Handlers registered inside a nested frame are *discarded* if that frame
//! aborts and *promoted to the parent frame* if it commits, exactly per the
//! paper. The transactional collection classes instead enlist one
//! [`Participant`] per touched instance ([`crate::Txn::enlist`]): its state
//! lives in the transaction for the whole attempt, and its `commit` or
//! `abort` is the paper's single handler pair for that instance, run under
//! the lane like the closure handlers and before them.

use crate::txn::Txn;
use std::any::Any;

/// A commit or abort handler. Runs exactly once, in direct mode, under the
/// handler lane.
pub(crate) type Handler = Box<dyn FnOnce(&mut Txn) + Send>;

/// A compensation for *transaction-local, non-transactional* state mutated
/// inside a nesting frame (e.g. a collection's store buffer, which lives in
/// the transaction's own participant). Runs in reverse registration order
/// when the registering frame aborts, in speculative mode, with the
/// transaction that registered it — so it can reach state parked on that
/// transaction; dropped when the top-level transaction commits.
///
/// This is the encapsulated alternative to Moss's interleaved-undo semantics
/// discussed (and rejected as unnecessary) in paper §5.1: because only the
/// registering transaction can touch the buffered state, replaying local
/// undos at frame-abort time is always safe.
pub(crate) type LocalUndo = Box<dyn FnOnce(&mut Txn) + Send>;

/// Per-attempt state that one top-level transaction keeps for one resource —
/// a collection instance's buffered writes and held locks — together with
/// the commit and abort handler that drain it (paper §5 guideline 2).
///
/// Enlisted once per attempt ([`Txn::enlist`]) and reachable from the body
/// through [`Txn::participant`]. Exactly one of `commit` and `abort` runs,
/// once, in direct mode under the handler lane, after the runtime has taken
/// every participant out of the transaction: no probe made from a handler
/// finds one. Participants run in enlistment order, before the closure
/// handlers.
pub trait Participant: Any + Send {
    /// The transaction committed: publish the buffered state through `htx`.
    fn commit(self: Box<Self>, htx: &mut Txn);
    /// The attempt aborted (its memory is already rolled back): compensate
    /// and release what the state holds.
    fn abort(self: Box<Self>, htx: &mut Txn);
}
