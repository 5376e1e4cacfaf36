//! Kernel-level invariance: the protocol obligations [`SemanticCore`]
//! discharges for every collection class, exercised through the public
//! kernel API directly (no collection in the loop).
//!
//! The companion suites pin the *observable* protocol: `oracle_matrix`
//! checks the 84-cell conflict matrix and `stripe_invariance` checks that
//! behavior is identical at 1, 2 and 16 stripes. Those must pass unchanged
//! before and after the kernel extraction. This file pins the kernel's own
//! contract: first-touch registration is idempotent and race-free, each
//! attempt's handlers fire exactly once, each handler takes the attempt's
//! whole buffer, leaving nothing behind, and a key lock taken through the
//! kernel is on the release list before any read a doom could unwind.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use stm::hash::StripeSet;
use stm::{atomic, AbortCause, TVar, Txn};
use txcollections::{
    ClassTables, GlobalStripe, KeyedClass, SemanticClass, SemanticCore, UpdateEffect,
};

/// Probe class: counts handler invocations and the ops they drained.
struct ProbeClass {
    applies: AtomicU64,
    releases: AtomicU64,
    drained_ops: AtomicU64,
    global: GlobalStripe<()>,
}

impl SemanticClass for ProbeClass {
    type Local = Vec<u64>;
    type RangeKey = ();

    fn global_stripe(&self) -> &GlobalStripe<()> {
        &self.global
    }

    fn apply(&self, local: Vec<u64>, _htx: &mut Txn) {
        self.applies.fetch_add(1, Ordering::SeqCst);
        self.drained_ops
            .fetch_add(local.len() as u64, Ordering::SeqCst);
    }

    fn release(&self, local: Vec<u64>, _htx: &mut Txn) {
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
        global: GlobalStripe::default(),
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

/// Keyed probe class, defined outside the crate: counting bins, each add
/// buffered blind and applied at commit, each read made under the bin's
/// key lock.
struct Bins {
    vars: Vec<TVar<u64>>,
    tables: ClassTables<u64>,
}

/// A transaction's buffered adds and held bin locks.
#[derive(Default)]
struct BinsLocal {
    adds: Vec<(u64, ())>,
    held: StripeSet<u64>,
}

impl SemanticClass for Bins {
    type Local = BinsLocal;
    type RangeKey = u64;

    fn global_stripe(&self) -> &GlobalStripe<u64> {
        self.tables.global_stripe()
    }

    fn apply(&self, local: BinsLocal, htx: &mut Txn) {
        let writes = local.adds.iter().map(|(bin, w)| (bin, w));
        self.tables
            .commit_sweep(
                htx.handle().id(),
                writes,
                local.held.iter(),
                |&bin, _, cx| {
                    let var = &self.vars[bin as usize];
                    let n = var.read(htx);
                    var.write(htx, n + 1);
                    cx.doom(UpdateEffect::KeyWrite, &bin);
                },
            )
            .finish(|_| {});
    }

    fn release(&self, local: BinsLocal, htx: &mut Txn) {
        self.tables
            .release_sweep(htx.handle().id(), local.held.iter());
    }
}

impl KeyedClass for Bins {
    type Key = u64;

    fn key_tables(&self) -> &ClassTables<u64> {
        &self.tables
    }

    fn held_keys(local: &mut BinsLocal) -> &mut StripeSet<u64> {
        &mut local.held
    }
}

/// A class outside the crate takes a bin lock through the kernel; a writer
/// on that bin commits between the take and the reader's open read, and
/// dooms it, so the read unwinds. The abort must still release the lock:
/// the kernel records the bin before returning from the take. (Recording
/// it after the read — the order a hand-rolled take invites — leaves the
/// lock in the table.)
#[test]
fn a_doom_before_the_read_leaves_no_key_lock_behind() {
    let core = SemanticCore::new(Bins {
        vars: (0..4).map(|_| TVar::new(0)).collect(),
        tables: ClassTables::new(4),
    });
    let (locked, written) = (Barrier::new(2), Barrier::new(2));
    let read = std::thread::scope(|s| {
        let reader = s.spawn(|| {
            let (reader, locked, written) = (core.clone(), &locked, &written);
            stm::speculate(
                move |tx| {
                    reader.take_key_lock(tx, &1);
                    locked.wait();
                    written.wait();
                    let var = reader.class().vars[1].clone();
                    tx.open_read(move |otx| var.read(otx))
                },
                0,
            )
            .err()
        });
        locked.wait();
        atomic(|tx| core.with_local(tx, |l| l.adds.push((1, ()))));
        written.wait();
        reader.join().expect("reader thread")
    });
    assert_eq!(
        read,
        Some(AbortCause::Doomed),
        "the writer dooms the reader"
    );
    assert_eq!(atomic(|tx| core.class().vars[1].read(tx)), 1);
    assert_eq!(
        core.class().tables.locked_key_count(),
        0,
        "the aborted reader's bin lock is still in the table"
    );
}
