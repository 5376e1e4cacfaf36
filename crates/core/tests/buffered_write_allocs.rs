//! Allocation gate for the buffered write path.
//!
//! A transaction body that blind-writes a batch of keys should cost the
//! growth of its own store buffer and little else: the buffer lives in the
//! transaction, and no undo is registered at the root frame. A counting
//! global allocator (counting only on the measuring thread) makes the
//! budget deterministic, so a reintroduced per-write allocation — a boxed
//! undo closure, a shared-table entry — fails this test outright instead of
//! showing up as noise in a benchmark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stm::atomic;
use txcollections::{MapBackend, TransactionalMap};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts allocations and reallocations made by the current thread while
/// `COUNTING` is set.
struct CountingAlloc;

fn count_one() {
    // `try_with`: the const-initialized cells have no destructor, but an
    // allocation during thread teardown must never panic in here.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: delegates every operation to `System`; the counter is a
// thread-local side effect with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Keys written per transaction body.
const OPS: u64 = 1024;
/// The budget for one body: the store buffer's and blind set's growth
/// (about ten doublings each to hold 1024 keys), the transaction's kernel
/// slot and handler pair, and slack — far below one allocation per write.
const BUDGET: u64 = 64;

/// Allocations made by the body of a warm `OPS`-key `put_discard`
/// transaction on `map` (counted inside the body, on this thread only).
fn body_allocations<B: MapBackend<u64, u64>>(map: &TransactionalMap<u64, u64, B>) -> u64 {
    // Warm up: the keys exist, and this thread's lazily created state
    // (metrics shard, epoch slot, trace ring) is in place.
    for round in 0..2 {
        atomic(|tx| {
            for k in 0..OPS {
                map.put_discard(tx, k, k + round);
            }
        });
    }
    let mut counted = 0;
    atomic(|tx| {
        ALLOCS.with(|n| n.set(0));
        COUNTING.with(|on| on.set(true));
        for k in 0..OPS {
            map.put_discard(tx, k, k + 7);
        }
        COUNTING.with(|on| on.set(false));
        counted = ALLOCS.with(Cell::get);
    });
    let last = atomic(|tx| map.get(tx, &(OPS - 1)));
    assert_eq!(last, Some(OPS - 1 + 7), "the measured body did not commit");
    counted
}

#[test]
fn buffered_put_body_allocates_within_budget() {
    let boosted = body_allocations(&TransactionalMap::boosted());
    let tvar = body_allocations(&TransactionalMap::new());
    println!("{OPS}-put body allocations: boosted {boosted}, TVar {tvar} (budget {BUDGET})");
    assert!(
        boosted <= BUDGET,
        "boosted map: a {OPS}-put body allocated {boosted} times (budget {BUDGET})"
    );
    assert!(
        tvar <= BUDGET,
        "TVar map: a {OPS}-put body allocated {tvar} times (budget {BUDGET})"
    );
}
