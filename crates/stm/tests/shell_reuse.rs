//! A thread reuses its transaction shell: the frames a finished transaction
//! context leaves, cleared, serve its next transaction and its next nesting
//! frame. These tests check that a reused shell keeps nothing of a finished
//! transaction — no buffered or replaced value, no owner pin, no entry —
//! and that each nesting frame pins the owner blocks of its own entries.
//! CI runs them 50 times in release, and under `taskset -c 0` in the
//! single-CPU job.
//!
//! Each test runs on its own thread with its own shell, and reads no
//! process-wide counter, so the tests may run in parallel.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};

use stm::{abort_and_retry, atomic, CellOwner, TCell, TVar, SPARE_FRAME_ENTRIES};

/// A value that records its tag in `drops` when it drops.
#[derive(Clone)]
struct Counted {
    tag: u64,
    drops: Arc<Mutex<Vec<u64>>>,
}

impl Drop for Counted {
    fn drop(&mut self) {
        self.drops.lock().unwrap().push(self.tag);
    }
}

/// A drop log and a maker of values that record into it.
fn drop_log() -> (Arc<Mutex<Vec<u64>>>, impl Fn(u64) -> Counted) {
    let drops = Arc::new(Mutex::new(Vec::new()));
    let log = Arc::clone(&drops);
    (drops, move |tag| Counted {
        tag,
        drops: Arc::clone(&log),
    })
}

fn dropped(drops: &Mutex<Vec<u64>>) -> Vec<u64> {
    drops.lock().unwrap().clone()
}

/// An owner block of two cells.
struct Block {
    a: TCell<u64>,
    b: TCell<u64>,
}

// SAFETY: two plain cell fields.
unsafe impl CellOwner for Block {}

fn block() -> Arc<Block> {
    Arc::new(Block {
        a: TCell::new(0),
        b: TCell::new(0),
    })
}

#[test]
fn a_replaced_value_drops_before_atomic_returns() {
    let (drops, counted) = drop_log();
    let v = TVar::new(counted(0));
    atomic(|tx| v.write(tx, counted(1)));
    assert_eq!(dropped(&drops), [0], "the replaced value outlived atomic");
    // A rewrite in one body drops the value it replaces in the log.
    atomic(|tx| {
        v.write(tx, counted(2));
        v.write(tx, counted(3));
    });
    assert_eq!(dropped(&drops), [0, 2, 1]);
}

#[test]
fn an_aborted_attempts_buffered_value_drops_before_the_retry() {
    let (drops, counted) = drop_log();
    let v = TVar::new(counted(0));
    let attempts = Cell::new(0);
    atomic(|tx| {
        attempts.set(attempts.get() + 1);
        if attempts.get() == 1 {
            v.write(tx, counted(5));
            abort_and_retry();
        }
        assert_eq!(dropped(&drops), [5], "the retry found the aborted value");
        v.write(tx, counted(6));
    });
    assert_eq!(attempts.get(), 2);
    assert_eq!(dropped(&drops), [5, 0]);
}

#[test]
fn a_frame_pins_each_owner_block_once_and_lets_go_when_the_transaction_ends() {
    let b = block();
    atomic(|tx| {
        let x = b.a.read(tx, &b);
        b.b.write(tx, &b, x + 1);
        b.a.write(tx, &b, x + 2);
        assert_eq!(Arc::strong_count(&b), 2, "one pin for the block");
    });
    assert_eq!(Arc::strong_count(&b), 1, "a commit kept its pin");

    let attempts = Cell::new(0);
    atomic(|tx| {
        attempts.set(attempts.get() + 1);
        assert_eq!(Arc::strong_count(&b), 1, "an abort kept its pin");
        b.a.write(tx, &b, 10);
        if attempts.get() == 1 {
            abort_and_retry();
        }
    });
    assert_eq!(Arc::strong_count(&b), 1);

    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        atomic(|tx| {
            let _ = b.b.read(tx, &b);
            b.a.write(tx, &b, 20);
            panic!("a user panic");
        })
    }));
    assert!(unwound.is_err());
    assert_eq!(Arc::strong_count(&b), 1, "an unwinding panic kept its pin");
    assert_eq!((b.a.read_committed(), b.b.read_committed()), (10, 1));
}

#[test]
fn a_transaction_after_a_large_one_starts_empty_within_the_cap() {
    let vars: Vec<TVar<u64>> = (0..10_000).map(TVar::new).collect();
    atomic(|tx| {
        for v in &vars {
            let x = v.read(tx);
            v.write(tx, x + 1);
        }
    });
    let (reads, writes, capacity) =
        atomic(|tx| (tx.read_set_len(), tx.write_set_len(), tx.frame_capacity()));
    assert_eq!((reads, writes), (0, 0), "the shell kept entries");
    assert!(
        capacity <= SPARE_FRAME_ENTRIES,
        "a reused frame kept room for {capacity} entries"
    );
    // Below the cap, a frame keeps its room for the next transaction.
    atomic(|tx| vars[..100].iter().for_each(|v| v.write(tx, 0)));
    let capacity = atomic(|tx| tx.frame_capacity());
    assert!(capacity >= 100, "the frame kept room for only {capacity}");
    assert_eq!(vars[0].read_committed(), 0);
}

/// A block whose one `Arc` sits in the returned cell, and a `Weak` of it.
fn held_once() -> (Cell<Option<Arc<Block>>>, Weak<Block>) {
    let b = block();
    let weak = Arc::downgrade(&b);
    (Cell::new(Some(b)), weak)
}

#[test]
fn a_merged_child_moves_its_pin_to_the_parent() {
    // The child writes a cell of a block, then drops the block's last
    // outside `Arc`: from then on only the frames' pins hold it.
    let (slot, weak) = held_once();
    let published = Arc::new(AtomicU64::new(u64::MAX));
    atomic(|tx| {
        tx.closed(|tx| {
            let b = slot.take().expect("the child runs once");
            b.a.write(tx, &b, 7);
            drop(b);
            assert_eq!(weak.strong_count(), 1, "the child's pin");
        });
        assert_eq!(weak.strong_count(), 1, "the pin moved to the parent");
        let (weak, seen) = (weak.clone(), Arc::clone(&published));
        // A commit handler runs after the publish, while the root frame
        // still pins the block. It reads and has nothing to compensate.
        let check = move |htx: &mut stm::Txn| {
            let b = weak.upgrade().expect("the root frame pins the block");
            seen.store(b.a.read(htx, &b), Ordering::Relaxed);
        };
        tx.on_commit(check); // txlint: allow(TX004)
    });
    assert_eq!(published.load(Ordering::Relaxed), 7, "the merged write");
    assert_eq!(weak.strong_count(), 0, "the commit kept the block alive");
}

#[test]
fn a_child_rolled_back_by_a_frame_retry_drops_its_pin() {
    let b = block();
    let x = TVar::new(0u64);
    let runs = Cell::new(0);
    let at_retry = Cell::new(0);
    atomic(|tx| {
        let before = Arc::strong_count(&b);
        tx.closed(|tx| {
            runs.set(runs.get() + 1);
            if runs.get() == 2 {
                at_retry.set(Arc::strong_count(&b));
            }
            let seen = x.read(tx);
            b.a.write(tx, &b, seen + 1);
            if runs.get() == 1 {
                assert_eq!(Arc::strong_count(&b), before + 1, "the child's pin");
                // An independent commit changes `x`, which only this frame
                // read: the re-read retries this frame alone.
                atomic(|t| x.write(t, 100)); // txlint: allow(TX005)
                let _ = x.read(tx);
                unreachable!("the changed read retries the frame");
            }
        });
        assert_eq!(at_retry.get(), before, "the rolled-back child kept its pin");
    });
    assert_eq!(runs.get(), 2);
    assert_eq!(b.a.read_committed(), 101);
    assert_eq!(Arc::strong_count(&b), 1);
}

#[test]
fn an_open_childs_flattened_read_validates_through_its_own_pin() {
    let (slot, weak) = held_once();
    let runs = Cell::new(0);
    let read = atomic(|tx| {
        tx.open(|otx| {
            otx.open_read(|t| {
                runs.set(runs.get() + 1);
                let b = slot.take().expect("the body runs once");
                let a = b.a.read(t, &b);
                drop(b);
                assert_eq!(weak.strong_count(), 1, "the open child's pin");
                a
            })
        })
    });
    assert_eq!((read, runs.get()), (0, 1), "the flattened read revalidated");
    assert_eq!(weak.strong_count(), 0, "the open child kept its pin");
}
