//! Footprint gates for semantic key locks.
//!
//! A key lock costs one entry in its stripe of the shared `key2lockers`
//! table — the owner stored inline — plus one key in the transaction's
//! held-key set, which is at once the txn-local lock cache and the release
//! list. Taking one allocates nothing of its own, and a stripe that empties
//! gives back what a large footprint made it grow. A counting global
//! allocator (counting only on the measuring thread) makes each budget
//! deterministic, so a reintroduced per-lock allocation or a table that
//! keeps its high-water mark fails here instead of showing up as noise in
//! a benchmark's peak RSS.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use stm::atomic;
use txcollections::{MapBackend, TransactionalMap};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed since counting was last reset.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` reached since counting was last reset.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Counts allocations, and live and peak heap bytes, made by the current
/// thread while `COUNTING` is set.
struct CountingAlloc;

/// Record an allocation event of `grow` bytes (negative for a free);
/// `fresh` is whether it is an allocation or reallocation to count.
fn record(grow: i64, fresh: bool) {
    // `try_with`: the const-initialized cells have no destructor, but an
    // allocation during thread teardown must never panic in here.
    let _ = COUNTING.try_with(|on| {
        if !on.get() {
            return;
        }
        if fresh {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
        let _ = LIVE.try_with(|live| {
            let now = live.get() + grow;
            live.set(now);
            let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
        });
    });
}

// SAFETY: delegates every operation to `System`; the counters are
// thread-local side effects with no influence on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as i64, true);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as i64), false);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size as i64 - layout.size() as i64, true);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Start counting from zero on this thread.
fn start_counting() {
    ALLOCS.with(|n| n.set(0));
    LIVE.with(|n| n.set(0));
    PEAK.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
}

/// Stop counting; returns `(allocations, live bytes, peak live bytes)`.
fn stop_counting() -> (u64, i64, i64) {
    COUNTING.with(|on| on.set(false));
    (
        ALLOCS.with(Cell::get),
        LIVE.with(Cell::get),
        PEAK.with(Cell::get),
    )
}

/// Distinct keys a `get` body locks.
const GETS: u64 = 1024;
/// The budget for that body: the held-key set's growth (about ten
/// doublings to hold 1024 keys), the transaction's kernel slot and handler
/// pair, and slack — far below one allocation per lock.
const GET_BUDGET: u64 = 64;

/// Keys in the enumerated map: a long transaction's whole-map read.
const ENTRIES: u64 = 65_536;
/// Peak live heap per enumerated key: the snapshot key list, the returned
/// entries, one `key2lockers` entry and one held-key set slot per key.
const PEAK_BYTES_PER_KEY: i64 = 128;
/// Live heap the enumeration may leave behind once it has committed and
/// released every lock: what the stripes keep for their next locks.
const RETAINED_BYTES: i64 = 256 * 1024;

/// Allocations made by the body of a warm transaction that `get`s `GETS`
/// distinct keys of `map` (counted inside the body, on this thread only).
fn get_body_allocations<B: MapBackend<u64, u64>>(map: &TransactionalMap<u64, u64, B>) -> u64 {
    atomic(|tx| {
        for k in 0..GETS {
            map.put_discard(tx, k, k);
        }
    });
    // Warm up: the stripes have held these locks before, and this thread's
    // lazily created state (metrics shard, epoch slot) is in place.
    for _ in 0..2 {
        atomic(|tx| {
            for k in 0..GETS {
                assert_eq!(map.get(tx, &k), Some(k));
            }
        });
    }
    let mut counted = 0;
    atomic(|tx| {
        start_counting();
        for k in 0..GETS {
            let _ = map.get(tx, &k);
        }
        counted = stop_counting().0;
    });
    assert_eq!(map.locked_key_count(), 0, "commit must release every lock");
    counted
}

#[test]
fn warm_get_body_allocates_within_budget() {
    let boosted = get_body_allocations(&TransactionalMap::boosted());
    let tvar = get_body_allocations(&TransactionalMap::new());
    println!("{GETS}-get body allocations: boosted {boosted}, TVar {tvar} (budget {GET_BUDGET})");
    assert!(
        boosted <= GET_BUDGET,
        "boosted map: a {GETS}-get body allocated {boosted} times (budget {GET_BUDGET})"
    );
    assert!(
        tvar <= GET_BUDGET,
        "TVar map: a {GETS}-get body allocated {tvar} times (budget {GET_BUDGET})"
    );
}

/// One committed `entries()` transaction over an `ENTRIES`-key boosted map:
/// returns `(peak, retained)` live heap bytes, counted on this thread from
/// just before the transaction to just after it.
fn enumerate_boosted() -> (i64, i64) {
    let map: TransactionalMap<u64, u64, _> = TransactionalMap::boosted();
    atomic(|tx| {
        for k in 0..ENTRIES {
            map.put_discard(tx, k, k);
        }
    });
    // Warm this thread's lazily created state on an unrelated instance, so
    // the enumerated map's stripes start empty.
    let warm: TransactionalMap<u64, u64, _> = TransactionalMap::boosted();
    atomic(|tx| warm.get(tx, &0));

    start_counting();
    let n = atomic(|tx| map.entries(tx).len());
    let (_, retained, peak) = stop_counting();
    assert_eq!(n as u64, ENTRIES);
    assert_eq!(map.locked_key_count(), 0, "commit must release every lock");
    (peak, retained)
}

#[test]
fn boosted_enumeration_peak_heap_per_key_within_budget() {
    let (peak, _) = enumerate_boosted();
    let per_key = peak / ENTRIES as i64;
    println!("{ENTRIES}-key entries(): peak {peak} B live, {per_key} B per key");
    assert!(
        per_key <= PEAK_BYTES_PER_KEY,
        "enumeration peaked at {per_key} B per key (budget {PEAK_BYTES_PER_KEY})"
    );
}

#[test]
fn emptied_lock_table_gives_back_capacity() {
    let (_, retained) = enumerate_boosted();
    println!("{ENTRIES}-key entries(): {retained} B live after commit");
    assert!(
        retained <= RETAINED_BYTES,
        "the enumeration left {retained} B live after releasing its locks \
         (budget {RETAINED_BYTES})"
    );
}
