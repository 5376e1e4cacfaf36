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
//!
//! The same allocator gates what a transaction pays to enlist a collection
//! instance on first touch — one boxed participant, plus the growth of the
//! transaction's participant list — and what a whole warm one-operation
//! map transaction allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hash::Hash;
use stm::{atomic, Txn};
use txcollections::{
    GlobalStripe, MapBackend, SemanticClass, SemanticCore, TransactionalMap, TransactionalSortedMap,
};

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

/// Allocations `f` makes on this thread.
fn allocations_of(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(Cell::get)
}

/// Keys written per transaction body.
const OPS: u64 = 1024;
/// The budget for one body: the store buffer's growth (about ten doublings
/// to hold 1024 keys), the map's enlistment in the transaction, and slack —
/// far below one allocation per write.
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
        counted = allocations_of(|| {
            for (k, key) in (0..OPS).zip(keys) {
                map.blind_put(tx, key, k + 7);
            }
        });
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

/// A kernel class that buffers nothing and takes no lock, so what its
/// first touch allocates is the enlistment alone.
struct Probe(GlobalStripe<()>);

impl SemanticClass for Probe {
    type Local = ();
    type RangeKey = ();

    fn global_stripe(&self) -> &GlobalStripe<()> {
        &self.0
    }

    fn apply(&self, _local: (), _htx: &mut Txn) {}

    fn release(&self, _local: (), _htx: &mut Txn) {}
}

/// Budget for a transaction's first enlistment: the boxed participant and
/// the participant list's first block.
const FIRST_ENLISTMENT: u64 = 2;
/// Budget for each later enlistment while the list has room: the box.
const LATER_ENLISTMENT: u64 = 1;

#[test]
fn enlisting_an_instance_allocates_its_participant_alone() {
    let cores: Vec<SemanticCore<Probe>> = (0..4)
        .map(|_| SemanticCore::new(Probe(GlobalStripe::default())))
        .collect();
    let touch_all = || {
        atomic(|tx| {
            cores
                .iter()
                .map(|core| allocations_of(|| core.ensure_registered(tx)))
                .collect::<Vec<u64>>()
        })
    };
    touch_all();
    let counts = touch_all();
    println!("first touches of four instances allocated {counts:?}");
    assert!(
        counts[0] <= FIRST_ENLISTMENT,
        "first enlistment allocated {} times (budget {FIRST_ENLISTMENT}); all: {counts:?}",
        counts[0]
    );
    for &n in &counts[1..] {
        assert!(
            n <= LATER_ENLISTMENT,
            "a later enlistment allocated {n} times (budget {LATER_ENLISTMENT}); all: {counts:?}"
        );
    }
}

/// Budgets for a whole warm transaction of one map operation: begin, the
/// operation with its enlistment and key lock, and the commit.
const BOOSTED_TXN: u64 = 10;
const TVAR_TXN: u64 = 11;

/// Allocations of a warm transaction of one `get` and of one
/// `put_discard` on `map`.
fn one_op_transactions<B: MapBackend<u64, u64>>(map: &TransactionalMap<u64, u64, B>) -> [u64; 2] {
    let get = || {
        atomic(|tx| map.get(tx, &1));
    };
    let put = || atomic(|tx| map.put_discard(tx, 1, 7));
    for _ in 0..2 {
        put();
        get();
    }
    [allocations_of(get), allocations_of(put)]
}

#[test]
fn a_one_operation_map_transaction_allocates_within_budget() {
    let maps = [
        (
            "boosted map",
            one_op_transactions(&TransactionalMap::boosted()),
            BOOSTED_TXN,
        ),
        (
            "TVar map",
            one_op_transactions(&TransactionalMap::new()),
            TVAR_TXN,
        ),
    ];
    for (map, counts, _) in maps {
        println!("{map}: a warm get / put_discard transaction allocated {counts:?} times");
    }
    for (map, counts, budget) in maps {
        for (op, n) in ["get", "put_discard"].into_iter().zip(counts) {
            assert!(
                n <= budget,
                "{map}: a warm {op} transaction allocated {n} times (budget {budget})"
            );
        }
    }
}
