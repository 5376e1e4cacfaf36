//! Memory footprint gates for the TVar-built structures.
//!
//! Most of the memory of a workload built from `TVar`s is the vars
//! themselves, so what one var costs, what a tree node costs, what an empty
//! hash map costs and what a var keeps alive after a snapshot reader left
//! are gated here with a counting global allocator (counting only on the
//! measuring thread), and so is the label table, which must not outlive the
//! vars it names.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, MutexGuard};
use stm::{atomic, atomic_read, TVar};
use txstruct::{TxHashMap, TxTreeMap};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    static NET_BYTES: Cell<i64> = const { Cell::new(0) };
    static NET_BLOCKS: Cell<i64> = const { Cell::new(0) };
}

/// Counts allocations, the largest block, and net live blocks and bytes
/// (allocated minus freed) of the current thread while `COUNTING` is set.
struct CountingAlloc;

fn record(allocated: usize, freed: usize) {
    // `try_with`: the const-initialized cells have no destructor, but an
    // allocation during thread teardown must never panic in here.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            if allocated > 0 {
                let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
                let _ = LARGEST.try_with(|m| m.set(m.get().max(allocated)));
            }
            let _ = NET_BYTES.try_with(|b| b.set(b.get() + allocated as i64 - freed as i64));
            let blocks = i64::from(allocated > 0) - i64::from(freed > 0);
            let _ = NET_BLOCKS.try_with(|b| b.set(b.get() + blocks));
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

/// Held by the test that pins a snapshot and by the test that counts live
/// blocks: a publish under a pin keeps a history chain, which is not node
/// memory.
static PIN_LOCK: Mutex<()> = Mutex::new(());

fn pin_lock() -> MutexGuard<'static, ()> {
    PIN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// What `f` did to this thread's heap.
struct Counted {
    allocs: u64,
    largest: usize,
    net_bytes: i64,
    net_blocks: i64,
}

fn counted<R>(f: impl FnOnce() -> R) -> (R, Counted) {
    ALLOCS.with(|n| n.set(0));
    LARGEST.with(|m| m.set(0));
    NET_BYTES.with(|b| b.set(0));
    NET_BLOCKS.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
    let r = f();
    COUNTING.with(|on| on.set(false));
    let c = Counted {
        allocs: ALLOCS.with(Cell::get),
        largest: LARGEST.with(Cell::get),
        net_bytes: NET_BYTES.with(Cell::get),
        net_blocks: NET_BLOCKS.with(Cell::get),
    };
    (r, c)
}

#[test]
fn a_u64_var_is_one_block_of_at_most_56_bytes() {
    // 56 bytes plus glibc's 8-byte chunk header is one 64-byte chunk.
    let (v, c) = counted(|| TVar::new(0u64));
    println!(
        "TVar::new(0u64): {} allocation(s), {} bytes",
        c.allocs, c.largest
    );
    assert_eq!(c.allocs, 1, "a var is one allocation");
    assert!(c.largest <= 56, "a u64 var takes {} bytes", c.largest);
    assert_eq!(v.read_committed(), 0);
}

#[test]
fn a_tree_node_is_one_block_of_at_most_256_bytes() {
    // A node's six vars (key, value, color and three links) live inline in
    // the node: what an insert leaves behind is one block per key.
    const KEYS: u64 = 64;
    let _no_pin = pin_lock();
    let t: TxTreeMap<u64, u64> = TxTreeMap::new();
    // Warm up this thread's transaction state and grow the tree past the
    // first rotations.
    for k in 0..KEYS {
        atomic(|tx| t.insert(tx, k * 2, k));
    }
    let ((), c) = counted(|| {
        for k in 0..KEYS {
            atomic(|tx| t.insert(tx, k * 2 + 1, k));
        }
    });
    println!(
        "{KEYS} inserts left {} live block(s), {} live bytes",
        c.net_blocks, c.net_bytes
    );
    assert_eq!(
        c.net_blocks, KEYS as i64,
        "inserted keys did not leave one live block each"
    );
    assert!(
        c.net_bytes <= 256 * KEYS as i64,
        "an inserted key left {} live bytes",
        c.net_bytes / KEYS as i64
    );
}

#[test]
fn an_empty_hash_map_allocates_once_per_bucket() {
    // 8192 bucket vars, plus the shared empty bucket, the table and the
    // header: empty buckets must not each own an empty vector.
    let (m, c) = counted(|| TxHashMap::<u64, u64>::with_capacity(8192));
    println!("TxHashMap::with_capacity(8192): {} allocations", c.allocs);
    assert!(
        c.allocs <= 8200,
        "{} allocations for 8192 buckets",
        c.allocs
    );
    assert!(atomic(|tx| m.is_empty(tx)));
}

#[test]
fn a_chain_is_freed_by_the_first_publish_after_the_last_unpin() {
    let _pin = pin_lock();
    let v = TVar::new(0u64);
    // Publish from another thread while this one holds a snapshot pin, so
    // each publish keeps its outgoing head on the chain.
    let seen = atomic_read(|tx| {
        let x = v.read(tx);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 1..=3 {
                    atomic(|tx| v.write(tx, i));
                }
            });
        });
        x
    });
    assert_eq!(seen, 0);
    let depth = v.chain_len();
    assert!(depth > 0, "no chain was built under the pin");
    // The same publish on a var without a chain is the baseline: whatever
    // a commit allocates it frees again.
    let control = TVar::new(0u64);
    atomic(|tx| control.write(tx, 1));
    let ((), base) = counted(|| atomic(|tx| control.write(tx, 2)));
    let ((), c) = counted(|| atomic(|tx| v.write(tx, 9)));
    assert_eq!(v.chain_len(), 0);
    let freed = base.net_bytes - c.net_bytes;
    let entries = (depth * std::mem::size_of::<(u64, u64)>()) as i64;
    println!("publish after unpin freed {freed} bytes ({depth} entries)");
    assert!(
        freed >= entries,
        "the publish after the last unpin freed {freed} bytes; the chain held {entries}"
    );
}

#[test]
fn labels_die_with_their_vars() {
    let start = stm::label_count();
    for i in 0..100 {
        let m: TxHashMap<u64, u64> = TxHashMap::with_capacity(64);
        m.set_label(&format!("map{i}"));
        // The header and its 64 buckets.
        assert_eq!(stm::label_count(), start + 65);
    }
    assert_eq!(stm::label_count(), start, "dropped maps left labels behind");
}
