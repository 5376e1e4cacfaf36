//! Memory footprint gate for the warehouse: what a committed NewOrder
//! leaves live, counted by a global allocator (on the measuring thread
//! only). An order's live heap is two tree nodes, one per sorted table
//! (`orderTable`, `newOrderTable`), plus its item list.

use jbb::{TmConfig, TmWarehouse, TxnRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stm::atomic;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts net live bytes (allocated minus freed) of the current thread
/// while `COUNTING` is set.
struct CountingAlloc;

fn record(allocated: usize, freed: usize) {
    // `try_with`: an allocation during thread teardown must never panic.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = NET_BYTES.try_with(|b| b.set(b.get() + allocated as i64 - freed as i64));
        }
    });
}

// SAFETY: delegates every operation to `System`; the counters are
// thread-local side effects with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size(), 0);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size, layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn a_new_order_leaves_at_most_320_live_bytes() {
    const WARM: usize = 300;
    const ORDERS: usize = 1_000;
    let w = TmWarehouse::new(TmConfig::Transactional);
    let mut rng = TxnRng::new(1, 0, 0);
    // Warm this thread's transaction state and the maps' tables.
    for _ in 0..WARM {
        atomic(|tx| w.new_order(tx, &mut rng, 0));
    }
    NET_BYTES.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    for _ in 0..ORDERS {
        atomic(|tx| w.new_order(tx, &mut rng, 0));
    }
    COUNTING.with(|on| on.set(false));
    let per_order = NET_BYTES.with(Cell::get) / ORDERS as i64;
    println!("{ORDERS} new orders left {per_order} live bytes each");
    assert!(per_order <= 320, "a new order left {per_order} live bytes");
    w.check_invariants().unwrap();
}
