//! Kernel-level invariance: the protocol obligations [`SemanticCore`]
//! discharges for every collection class, exercised through the public
//! kernel API directly (no collection in the loop).
//!
//! The companion suites pin the *observable* protocol: `oracle_matrix`
//! checks the 84-cell conflict matrix and `stripe_invariance` checks that
//! behavior is identical at 1, 2 and 16 stripes. Those must pass unchanged
//! before and after the kernel extraction. This file pins the kernel's own
//! contract: first-touch registration is idempotent and race-free, each
//! attempt's handlers fire exactly once, and each handler takes the
//! attempt's whole buffer, leaving nothing behind.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stm::{atomic, Txn};
use txcollections::{SemanticClass, SemanticCore, SemanticStats};

/// Probe class: counts handler invocations and the ops they drained.
struct ProbeClass {
    applies: AtomicU64,
    releases: AtomicU64,
    drained_ops: AtomicU64,
}

impl SemanticClass for ProbeClass {
    type Local = Vec<u64>;
    type Undo = ();

    fn apply(&self, local: Vec<u64>, _htx: &mut Txn, _id: u64, _stats: &SemanticStats) {
        self.applies.fetch_add(1, Ordering::SeqCst);
        self.drained_ops
            .fetch_add(local.len() as u64, Ordering::SeqCst);
    }

    fn release(&self, local: Vec<u64>, _htx: &mut Txn, _id: u64, _stats: &SemanticStats) {
        self.releases.fetch_add(1, Ordering::SeqCst);
        self.drained_ops
            .fetch_add(local.len() as u64, Ordering::SeqCst);
    }
}

fn probe_core() -> SemanticCore<ProbeClass> {
    SemanticCore::new(ProbeClass {
        applies: AtomicU64::new(0),
        releases: AtomicU64::new(0),
        drained_ops: AtomicU64::new(0),
    })
}

/// First-touch registration raced from many threads: every transaction
/// calls `ensure_registered` repeatedly (first touch plus re-touches) and
/// buffers a few ops; each transaction must get exactly one commit-handler
/// invocation, and every buffered op must be drained exactly once.
#[test]
fn first_touch_registration_race_registers_exactly_once() {
    const THREADS: u64 = 8;
    const TXNS: u64 = 200;
    const OPS: u64 = 3;
    let core = Arc::new(probe_core());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let core = core.clone();
            s.spawn(move || {
                for i in 0..TXNS {
                    atomic(|tx| {
                        for j in 0..OPS {
                            // Re-registration on every op, as collection
                            // operations do: must stay idempotent.
                            core.ensure_registered(tx);
                            core.with_local(tx, |l| l.push(t * 1_000_000 + i * OPS + j));
                        }
                    });
                }
            });
        }
    });
    let class = core.class();
    assert_eq!(
        class.applies.load(Ordering::SeqCst),
        THREADS * TXNS,
        "each committed transaction must run its commit handler exactly once"
    );
    assert_eq!(class.releases.load(Ordering::SeqCst), 0);
    assert_eq!(
        class.drained_ops.load(Ordering::SeqCst),
        THREADS * TXNS * OPS,
        "every buffered op must be drained exactly once"
    );
}

/// Aborted attempts run the abort handler exactly once, and never the
/// commit handler; the buffer drains either way.
#[test]
fn aborts_run_release_exactly_once() {
    let core = probe_core();
    const N: usize = 50;
    for _ in 0..N {
        let c = core.clone();
        let (_, t) = stm::speculate(
            move |tx| {
                c.ensure_registered(tx);
                c.with_local(tx, |l| l.push(1));
            },
            0,
        )
        .unwrap();
        t.abort(stm::AbortCause::Explicit);
    }
    let class = core.class();
    assert_eq!(class.applies.load(Ordering::SeqCst), 0);
    assert_eq!(class.releases.load(Ordering::SeqCst), N as u64);
    assert_eq!(class.drained_ops.load(Ordering::SeqCst), N as u64);
}

/// The commit handler takes the attempt's whole slot: a probe that runs
/// after it (registered later on the same transaction) finds no buffer to
/// read or mutate, so no later compensation can resurrect drained state.
#[test]
fn probe_after_commit_handler_finds_no_slot() {
    let core = probe_core();
    let probed = Arc::new(parking_lot::Mutex::new(None));
    let (c, p) = (core.clone(), probed.clone());
    let (_, t) = stm::speculate(
        move |tx| {
            c.ensure_registered(tx);
            c.with_local(tx, |l| l.push(42));
            let (c1, p1) = (c.clone(), p.clone());
            tx.on_commit_top(move |htx| *p1.lock() = Some(c1.try_local(htx, |l| l.len())));
            let (c2, p2) = (c.clone(), p.clone());
            tx.on_abort_top(move |htx| *p2.lock() = Some(c2.try_local(htx, |l| l.len())));
        },
        0,
    )
    .unwrap();
    t.commit();
    assert_eq!(*probed.lock(), Some(None), "the slot outlived its handler");
    let class = core.class();
    assert_eq!(class.applies.load(Ordering::SeqCst), 1);
    assert_eq!(class.drained_ops.load(Ordering::SeqCst), 1);
}
