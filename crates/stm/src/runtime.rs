//! Execution drivers: the threaded retry loop and the simulator-facing
//! prepared-transaction API.
//!
//! txlint: metrics — metrics-emitter argument spans here must not allocate
//! or format (TX014).

use crate::contention::{BackoffPolicy, ContentionManager};
use crate::handle::TxHandle;
use crate::interrupt::{self, AbortCause, TxInterrupt};
use crate::tvar::VarId;
use crate::txn::Txn;
use crate::{epoch, metrics, trace};
use std::sync::Arc;

/// Options for [`atomic_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOpts {
    /// Contention-management policy between attempts.
    pub backoff: BackoffPolicy,
    /// Abort the process-visible retry loop after this many attempts
    /// (`None` = retry forever). Mostly for tests.
    pub max_attempts: Option<u32>,
}

/// Run `f` as a top-level atomic transaction, retrying on conflict until it
/// commits, and return its result.
///
/// `f` must be re-executable: it may run several times, and all its effects
/// on transactional state are isolated until commit. Effects on
/// *non*-transactional state should be compensated via
/// [`Txn::on_local_undo`] / [`Txn::on_abort_top`], or kept in a
/// [`crate::Participant`] whose `abort` compensates (this is what the
/// transactional collection classes do: each touched instance enlists one
/// through [`Txn::enlist`]).
///
/// Calling `atomic` from inside another `atomic` creates an *independent*
/// transaction, not a nested one — use [`Txn::closed`] or [`Txn::open`] for
/// nesting.
pub fn atomic<T>(f: impl FnMut(&mut Txn) -> T) -> T {
    atomic_with(RunOpts::default(), f)
}

/// [`atomic`] with explicit [`RunOpts`].
pub fn atomic_with<T>(opts: RunOpts, mut f: impl FnMut(&mut Txn) -> T) -> T {
    let cm = ContentionManager::new(opts.backoff);
    // Wall time spans every retry attempt: the latency the *caller* sees.
    let wall_t0 = metrics::timer();
    let mut attempts: u32 = 0;
    loop {
        let handle = TxHandle::new(attempts);
        let mut tx = Txn::new_top(handle);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut tx)));
        match outcome {
            Ok(v) => match tx.try_commit_top() {
                Ok(()) => {
                    metrics::hist_elapsed(metrics::HistKind::TxnWall, wall_t0);
                    return v;
                }
                Err(cause) => {
                    tx.run_abort_path(cause);
                }
            },
            Err(payload) => match interrupt::classify(payload) {
                Ok(TxInterrupt::Retry(cause)) => {
                    tx.run_abort_path(cause);
                }
                // A frame retry for the root frame degenerates to a full
                // retry (the root is not closed-nested).
                Ok(TxInterrupt::RetryFrame(_)) => {
                    tx.run_abort_path(AbortCause::ReadInvalid);
                }
                Ok(TxInterrupt::UserAbort) => {
                    tx.run_abort_path(AbortCause::Explicit);
                    panic!("transaction aborted by user request");
                }
                // Only snapshot attempts throw this; a validated transaction
                // reaching it means a bug upstream — retry defensively.
                Ok(TxInterrupt::SnapshotFallback) => {
                    tx.run_abort_path(AbortCause::Explicit);
                }
                Ok(TxInterrupt::Misuse(diag)) => {
                    // Clean abort first (compensation runs, locks release),
                    // then report the misuse outside the re-executable body.
                    tx.run_abort_path(AbortCause::Explicit);
                    panic!("{diag}");
                }
                Err(user_panic) => {
                    // A genuine bug in user code: clean up transactional
                    // state, then let the panic continue.
                    tx.run_abort_path(AbortCause::Explicit);
                    std::panic::resume_unwind(user_panic);
                }
            },
        }
        attempts += 1;
        if let Some(max) = opts.max_attempts {
            assert!(
                attempts < max,
                "transaction failed to commit within {max} attempts"
            );
        }
        cm.pause(attempts);
    }
}

/// Run `f` as a **snapshot (read-only) transaction**: sample the clock once,
/// pin that epoch, and serve every read from the newest version-chain entry
/// at or below the snapshot — no read-set, no commit-time validation, no
/// semantic locks, and no aborts by construction. Collection reads made
/// through a snapshot transaction skip lock acquisition entirely (the
/// kernel's snapshot skip); writes, handler registration, and lock-acquiring
/// operations abort with a diagnostic.
///
/// The one escape hatch: if a chain was truncated past the snapshot (the
/// reader was pinned for longer than the chain depth bound sustains, or it
/// raced its own pin against a publish), or the body touched a structure
/// with no per-version history (boosted or eager backends), the attempt is
/// abandoned and `f` re-runs as an ordinary validated [`atomic`]
/// transaction. This is counted (`snapshot_fallbacks`), never silent.
///
/// ```
/// use stm::{atomic, atomic_read, TVar};
/// let a = TVar::new(1);
/// let b = TVar::new(2);
/// atomic(|tx| { let x = a.read(tx); b.write(tx, x + 10); });
/// let sum = atomic_read(|tx| a.read(tx) + b.read(tx));
/// assert_eq!(sum, 12);
/// ```
pub fn atomic_read<T>(mut f: impl FnMut(&mut Txn) -> T) -> T {
    let read_t0 = metrics::timer();
    let pin = epoch::pin();
    let handle = TxHandle::new(0);
    let mut tx = Txn::new_snapshot(handle, pin.epoch());
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut tx)));
    match outcome {
        Ok(v) => {
            tx.finish_snapshot();
            metrics::hist_elapsed(metrics::HistKind::SnapshotRead, read_t0);
            v
        }
        Err(payload) => {
            let id = tx.handle().id();
            match interrupt::classify(payload) {
                // Chain truncated past the snapshot — or, defensively, a
                // body that asked to retry (unreachable by construction:
                // snapshot reads are consistent, so consistency bail-outs
                // like the iterators' completeness check never fire).
                Ok(TxInterrupt::SnapshotFallback)
                | Ok(TxInterrupt::Retry(_))
                | Ok(TxInterrupt::RetryFrame(_)) => {
                    trace::snapshot_fallback(id);
                    tx.abandon_snapshot();
                    // Unpin *before* the validated re-run: holding the pin
                    // through an arbitrarily long transaction would stall
                    // chain reclamation for everyone.
                    drop(pin);
                    metrics::tally(metrics::Total::SnapshotFallbacks);
                    atomic(f)
                }
                Ok(TxInterrupt::Misuse(diag)) => {
                    tx.abandon_snapshot();
                    panic!("{diag}");
                }
                Ok(TxInterrupt::UserAbort) => {
                    tx.abandon_snapshot();
                    panic!("transaction aborted by user request");
                }
                Err(user_panic) => {
                    tx.abandon_snapshot();
                    std::panic::resume_unwind(user_panic);
                }
            }
        }
    }
}

/// A speculated-but-uncommitted transaction, produced by [`speculate`].
///
/// This is the simulator's unit of work: the body has already executed (its
/// open-nested effects are visible, its top-level effects are buffered), and
/// the simulator decides later — in virtual-time order — whether to
/// [`commit`](PreparedTxn::commit) or [`abort`](PreparedTxn::abort) it.
/// Its frames go back to the thread's spares only then, so a thread can
/// hold many in flight.
#[must_use = "a speculated transaction holds buffered writes and semantic locks until committed or aborted"]
pub struct PreparedTxn {
    tx: Txn,
}

impl PreparedTxn {
    /// Handle of the speculated attempt (the simulator uses it to observe
    /// dooms posted by other transactions' commit handlers).
    pub fn handle(&self) -> Arc<TxHandle> {
        self.tx.handle().clone()
    }

    /// Memory-level read footprint of the top-level transaction (open-nested
    /// reads excluded — they already committed).
    pub fn read_set(&self) -> Vec<VarId> {
        self.tx.read_ids()
    }

    /// Memory-level write footprint of the top-level transaction.
    pub fn write_set(&self) -> Vec<VarId> {
        self.tx.write_ids()
    }

    /// Read footprint with body-cycle offsets (see [`Txn::read_offsets`]).
    pub fn read_offsets(&self) -> Vec<(VarId, u64)> {
        self.tx.read_offsets()
    }

    /// Commit through the threaded runtime's own top-level commit: validate
    /// the read set, win the doom-vs-commit CAS, publish the buffered writes
    /// and run participants and commit handlers under the handler lane.
    ///
    /// The caller (the simulator) is responsible for the TCC invariant that
    /// makes both checks pass: every earlier-committing conflicting
    /// transaction must already have aborted this one, and the simulator
    /// never interleaves a doom with a commit event.
    ///
    /// # Panics
    ///
    /// With the abort cause, when the invariant is broken (a stale read or
    /// a pending doom). Nothing is published: the transaction takes the
    /// abort path, as [`abort`](PreparedTxn::abort) would, before the panic.
    pub fn commit(mut self) {
        if let Err(cause) = self.tx.try_commit_top() {
            self.tx.run_abort_path(cause);
            panic!("speculated transaction failed to commit: {cause:?}");
        }
    }

    /// Discard the buffered writes, run local undos, then participants and
    /// abort handlers (compensating any open-nested effects).
    pub fn abort(mut self, cause: AbortCause) {
        self.tx.run_abort_path(cause);
    }
}

/// Execute `f` speculatively as a top-level transaction body, without
/// committing. Returns the body's value and the [`PreparedTxn`].
///
/// `Err` is returned when the body aborts itself ([`crate::abort_and_retry`])
/// or observes a doom; compensation has already run. The simulator decides
/// when and whether to re-execute.
#[must_use = "dropping the PreparedTxn leaks its semantic locks; commit or abort it"]
pub fn speculate<T>(
    f: impl FnOnce(&mut Txn) -> T,
    prior_attempts: u32,
) -> Result<(T, PreparedTxn), AbortCause> {
    let handle = TxHandle::new(prior_attempts);
    let mut tx = Txn::new_top(handle);
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut tx)));
    match outcome {
        Ok(v) => Ok((v, PreparedTxn { tx })),
        Err(payload) => match interrupt::classify(payload) {
            Ok(TxInterrupt::Retry(cause)) => {
                tx.run_abort_path(cause);
                Err(cause)
            }
            Ok(TxInterrupt::RetryFrame(_)) => {
                tx.run_abort_path(AbortCause::ReadInvalid);
                Err(AbortCause::ReadInvalid)
            }
            Ok(TxInterrupt::UserAbort) => {
                tx.run_abort_path(AbortCause::Explicit);
                Err(AbortCause::Explicit)
            }
            Ok(TxInterrupt::SnapshotFallback) => {
                // Never thrown by speculated bodies (the simulator does not
                // run snapshot transactions); treat as an explicit abort.
                tx.run_abort_path(AbortCause::Explicit);
                Err(AbortCause::Explicit)
            }
            Ok(TxInterrupt::Misuse(diag)) => {
                tx.run_abort_path(AbortCause::Explicit);
                panic!("{diag}");
            }
            Err(user_panic) => {
                tx.run_abort_path(AbortCause::Explicit);
                std::panic::resume_unwind(user_panic);
            }
        },
    }
}
