//! Allocation gate for the buffered write path.
//!
//! A transaction body that blind-writes a batch of keys should cost the
//! growth of its own store buffer and little else: the buffer lives in the
//! transaction, no undo is registered at the root frame, and a root-frame
//! write moves its key into the buffer instead of cloning it. A counting
//! global allocator (counting only on the measuring thread) makes the
//! budget deterministic, so a reintroduced per-write allocation — a boxed
//! undo closure, a shared-table entry, a key clone — fails this test
//! outright instead of showing up as noise in a benchmark. `String` keys
//! make a key clone an allocation, on the hash map and the sorted map.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::Hash;
use stm::{atomic, Txn};
use txcollections::{MapBackend, TransactionalMap, TransactionalSortedMap};

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
/// The budget for one body: the store buffer's growth (about ten doublings
/// to hold 1024 keys), the transaction's kernel slot and handler pair, and
/// slack — far below one allocation per write.
const BUDGET: u64 = 64;

/// The map operations a body uses, on either map kind.
trait BlindPut<K> {
    fn blind_put(&self, tx: &mut Txn, key: K, value: u64);
    fn read(&self, tx: &mut Txn, key: &K) -> Option<u64>;
}

impl<K, B> BlindPut<K> for TransactionalMap<K, u64, B>
where
    K: Clone + Eq + Hash + Send + Sync + 'static,
    B: MapBackend<K, u64>,
{
    fn blind_put(&self, tx: &mut Txn, key: K, value: u64) {
        self.put_discard(tx, key, value);
    }

    fn read(&self, tx: &mut Txn, key: &K) -> Option<u64> {
        self.get(tx, key)
    }
}

impl<K> BlindPut<K> for TransactionalSortedMap<K, u64>
where
    K: Clone + Ord + Hash + Send + Sync + 'static,
{
    fn blind_put(&self, tx: &mut Txn, key: K, value: u64) {
        self.put_discard(tx, key, value);
    }

    fn read(&self, tx: &mut Txn, key: &K) -> Option<u64> {
        self.get(tx, key)
    }
}

/// Allocations made by the body of a warm `OPS`-key `put_discard`
/// transaction on `map`, keys `key(0..OPS)` (counted inside the body, on
/// this thread only). The keys are built before counting starts and moved
/// in.
fn body_allocations<K>(map: &impl BlindPut<K>, key: impl Fn(u64) -> K) -> u64 {
    // Warm up: the keys exist, and this thread's lazily created state
    // (metrics shard, epoch slot, trace ring) is in place.
    for round in 0..2 {
        atomic(|tx| {
            for k in 0..OPS {
                map.blind_put(tx, key(k), k + round);
            }
        });
    }
    let mut counted = 0;
    atomic(|tx| {
        let keys: Vec<K> = (0..OPS).map(&key).collect();
        ALLOCS.with(|n| n.set(0));
        COUNTING.with(|on| on.set(true));
        for (k, key) in (0..OPS).zip(keys) {
            map.blind_put(tx, key, k + 7);
        }
        COUNTING.with(|on| on.set(false));
        counted = ALLOCS.with(Cell::get);
    });
    let last = atomic(|tx| map.read(tx, &key(OPS - 1)));
    assert_eq!(last, Some(OPS - 1 + 7), "the measured body did not commit");
    counted
}

#[test]
fn buffered_put_body_allocates_within_budget() {
    let bodies = [
        (
            "boosted map, u64 keys",
            body_allocations(&TransactionalMap::boosted(), |k| k),
        ),
        (
            "TVar map, u64 keys",
            body_allocations(&TransactionalMap::new(), |k| k),
        ),
        (
            "TVar map, String keys",
            body_allocations(&TransactionalMap::new(), |k| k.to_string()),
        ),
        (
            "sorted map, String keys",
            body_allocations(&TransactionalSortedMap::new(), |k| k.to_string()),
        ),
    ];
    for (map, allocs) in bodies {
        println!("{map}: a {OPS}-put body allocated {allocs} times (budget {BUDGET})");
    }
    for (map, allocs) in bodies {
        assert!(
            allocs <= BUDGET,
            "{map}: a {OPS}-put body allocated {allocs} times (budget {BUDGET})"
        );
    }
}
