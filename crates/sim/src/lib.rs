//! # sim — a deterministic transaction-level chip-multiprocessor simulator
//!
//! The paper evaluates on an execution-driven simulator of a PowerPC CMP
//! implementing the TCC continuous-transaction architecture (1–32 CPUs),
//! with MESI snoopy coherence for the Java lock baselines. This crate is the
//! transaction-level analog: it reproduces the quantity the paper's figures
//! plot — **speedup over the 1-CPU lock baseline, as conflict-induced lost
//! work and lock contention grow with CPU count** — without simulating
//! individual instructions.
//!
//! Two engines share a virtual-cycle clock:
//!
//! * [`run_tm`] — **TCC mode.** Each virtual CPU executes a sequence of
//!   transactions. A transaction body is *actually executed* against the
//!   real `stm` state ([`stm::speculate`]), accruing virtual cycles for
//!   every `TVar` access plus explicit [`think`] work; its commit is
//!   scheduled at `start + cost`. Commits are processed in virtual-time
//!   order; a committing transaction always succeeds (TCC: the committer
//!   broadcasts) and **violates** every in-flight transaction whose
//!   memory-level read set intersects its write set *or* whose handle its
//!   commit handlers doomed (semantic conflicts). Violated transactions
//!   lose the cycles they had accrued and re-execute. Because every commit
//!   eagerly violates conflicting readers, a transaction reaching its own
//!   commit event is guaranteed valid — exactly the TCC invariant.
//! * [`run_lock`] — **lock mode.** Transaction bodies run against
//!   lock-based structures while recording a trace of `Work` and
//!   `Critical(lock, cycles)` segments; a greedy smallest-time-first
//!   scheduler then replays the traces against per-lock availability,
//!   modeling blocking.
//!
//! Both engines are fully deterministic: a fixed interleaving policy, no
//! wall-clock, no host-thread nondeterminism — so every figure regenerates
//! bit-identically.

#![warn(missing_docs)]

mod lockmode;
mod tmmode;

pub use lockmode::{run_lock, LockRecorder, LockResult, LockWorkload};
pub use tmmode::{run_tm, TmResult, TmWorkload, UNLABELLED};

/// Charge `cycles` of "surrounding computation" to the current transaction
/// body (the paper's long-transaction filler between collection operations).
pub fn think(cycles: u64) {
    stm::add_cost(cycles);
}

/// Fixed per-transaction overhead in cycles (begin/commit machinery).
pub const TXN_OVERHEAD: u64 = 40;

/// Cycles lost to rollback bookkeeping when a transaction is violated, in
/// addition to the discarded execution time.
pub const ABORT_PENALTY: u64 = 40;
