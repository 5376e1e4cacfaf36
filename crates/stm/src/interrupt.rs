//! Control-flow interrupts for abort/retry.
//!
//! Aborting a transaction from deep inside a data-structure operation needs a
//! non-local exit. We use `std::panic::resume_unwind` with a private payload
//! type: unlike `panic!`, `resume_unwind` does not invoke the panic hook, so
//! retries are silent. The runtime's catch site inspects the payload — our
//! own [`TxInterrupt`] drives the retry machinery, anything else is a genuine
//! user panic and is propagated after abort handlers run.

use std::any::Any;
use std::panic;

/// Why a transaction attempt aborted. Recorded in statistics and surfaced by
/// the prepared-transaction API.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbortCause {
    /// Read-set validation failed (memory-level conflict).
    ReadInvalid,
    /// Another transaction issued a program-directed abort
    /// (semantic conflict via [`crate::TxHandle::doom`]).
    Doomed,
    /// The program aborted itself via [`abort_and_retry`] or [`user_abort`].
    Explicit,
}

/// Internal unwind payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TxInterrupt {
    /// Abort the whole top-level transaction and retry it.
    Retry(AbortCause),
    /// Abort the whole top-level transaction and do NOT retry; `atomic`
    /// panics with a user abort error instead.
    UserAbort,
    /// Partially roll back: discard frames above (and including) the frame
    /// with this index, then re-run that closed-nested frame only.
    RetryFrame(usize),
    /// A snapshot ([`crate::atomic_read`]) attempt cannot be served from the
    /// version chains (an entry was truncated past the snapshot version):
    /// abandon the attempt and re-run on the validated path. Counted as a
    /// fallback, never as an abort.
    SnapshotFallback,
    /// The program called a transactional API in a context where it is
    /// forbidden (a write inside `open_read` or inside a snapshot
    /// transaction). The attempt is aborted *cleanly* — compensation runs,
    /// locks release — and the runner then panics with this diagnostic at
    /// the `atomic` boundary, outside any re-executable closure, keeping the
    /// runtime recoverable (the failure mode TX003 exists to catch).
    Misuse(&'static str),
}

pub(crate) fn throw(i: TxInterrupt) -> ! {
    panic::resume_unwind(Box::new(i))
}

/// Downcast an unwind payload back into a [`TxInterrupt`], or return it.
pub(crate) fn classify(payload: Box<dyn Any + Send>) -> Result<TxInterrupt, Box<dyn Any + Send>> {
    match payload.downcast::<TxInterrupt>() {
        Ok(i) => Ok(*i),
        Err(p) => Err(p),
    }
}

/// Abort the current transaction attempt and retry it from the top.
///
/// This is the program-directed self-abort of paper §4 ("some systems provide
/// an interface for transactions to abort themselves"). Abort handlers run
/// before the retry.
pub fn abort_and_retry() -> ! {
    throw(TxInterrupt::Retry(AbortCause::Explicit))
}

/// Abort the current transaction attempt and give up: [`crate::atomic`]
/// panics with `"transaction aborted by user request"` after running abort
/// handlers. Use this for consistency-violation bail-outs.
pub fn user_abort() -> ! {
    throw(TxInterrupt::UserAbort)
}
