//! The cost ladder: what one warm, single-threaded operation costs at each
//! layer, from a raw concurrent map up to a `jbb` transaction, counted
//! instead of timed.
//!
//! Each row runs `WARM` unmeasured and then `TXNS` measured transactions
//! with fixed keys and seeds. The columns are counters the program
//! already keeps, read across the measured window:
//! * `allocs`: allocations on this thread (a counting global allocator);
//! * `pins`: the `global_stats()` delta of owner pins, the `Arc` clones a
//!   nesting frame takes of each owner block its entries' cells lie in;
//! * `draws`: global-clock versions drawn, read as the version a snapshot
//!   reads at. A snapshot draws none but counts as a commit, so it is
//!   taken outside the `global_stats()` window;
//! * `lane`, `gstripe`, `cache`, `open`, `flat`, `handlers`: the
//!   `global_stats()` deltas of lane entries, global-stripe entries,
//!   lock-cache hits, open-nested commits, flattened opens, handler runs;
//! * `locks`: the row's collections' `SemanticStats::lock_acquisitions`;
//! * `reads`, `writes`: the read- and write-set sizes each body leaves.
//!
//! The counts are the same in debug and release builds, so every cell is
//! pinned exactly. This is the only test in its binary, so nothing else
//! moves the process-wide counters while it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::ops::Bound;
use std::sync::atomic::Ordering;

use jbb::{JMap, JSorted, TmConfig, TmWarehouse, TxnRng};
use stm::{atomic, atomic_read, TVar, Txn};
use txcollections::{
    Channel, MapBackend, SemanticStats, TransactionalMap, TransactionalQueue,
    TransactionalSortedMap,
};
use txstruct::{BoostedHashMap, LockHashMap, TxHashMap};

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

/// Unmeasured transactions before each row's window, so this thread's
/// lazily created state and each structure's tables are in place.
const WARM: u64 = 100;
/// Measured transactions per row. The pinned cells are totals over them;
/// the printed table divides by `TXNS`.
const TXNS: u64 = 100;
/// Keys preloaded into every map.
const KEYS: u64 = 1024;
/// Keys a sorted-map range read returns.
const RANGE: u64 = 16;

/// The key of a row's `i`th transaction: a stride through the preloaded
/// keys.
fn key(i: u64) -> u64 {
    i * 7 % KEYS
}

const COLUMNS: [&str; 12] = [
    "allocs", "pins", "draws", "lane", "gstripe", "cache", "open", "flat", "handlers", "locks",
    "reads", "writes",
];

/// One row's cells, in `COLUMNS` order, summed over its `TXNS`
/// transactions.
type Counts = [u64; COLUMNS.len()];

/// End a measured body: keep its result from being optimized away, and
/// return the read-set and write-set sizes the body left.
fn done<T>(result: T, tx: &Txn) -> [u64; 2] {
    black_box(result);
    [tx.read_set_len() as u64, tx.write_set_len() as u64]
}

/// Run `body` as one transaction; the sets it left at its end.
fn txn<T>(mut body: impl FnMut(&mut Txn) -> T) -> [u64; 2] {
    atomic(|tx| done(body(tx), tx))
}

/// The body of the read-modify-write rows.
fn rmw(tx: &mut Txn, v: &TVar<u64>) {
    let x = v.read(tx);
    v.write(tx, x + 1);
}

/// The version a snapshot reads at, which reading draws none of.
fn clock() -> u64 {
    atomic_read(|tx| tx.snapshot_version()).expect("a snapshot reads at a version")
}

fn lock_acquisitions(stats: &[&SemanticStats]) -> u64 {
    stats
        .iter()
        .map(|s| s.lock_acquisitions.load(Ordering::Relaxed))
        .sum()
}

/// The rows measured so far: a name and its cells.
#[derive(Default)]
struct Ladder(Vec<(String, Counts)>);

impl Ladder {
    /// Measure a row: `TXNS` runs of `op` after `WARM` unmeasured ones.
    /// `op(i)` runs the row's `i`th transaction and returns the sets its
    /// body left; `stats` are the collections whose lock acquisitions the
    /// row counts.
    fn row(
        &mut self,
        name: impl Into<String>,
        stats: &[&SemanticStats],
        mut op: impl FnMut(u64) -> [u64; 2],
    ) {
        for i in 0..WARM {
            op(i);
        }
        let locks = lock_acquisitions(stats);
        let version = clock();
        let before = stm::global_stats();
        let mut footprint = [0; 2];
        let allocs = allocations_of(|| {
            for i in 0..TXNS {
                let [reads, writes] = op(i);
                footprint[0] += reads;
                footprint[1] += writes;
            }
        });
        let d = stm::global_stats().diff(&before);
        let counts = [
            allocs,
            d.owner_pins,
            clock() - version,
            d.lane_entries,
            d.global_stripe_entries,
            d.lock_cache_hits,
            d.open_commits,
            d.open_flattened,
            d.handler_runs,
            lock_acquisitions(stats) - locks,
            footprint[0],
            footprint[1],
        ];
        self.0.push((name.into(), counts));
    }
}

/// Every row's cells in measuring order, totals over `TXNS = 100`
/// transactions (so 1000 is 10 per transaction).
#[rustfmt::skip]
const PINNED: [(&str, Counts); 26] = [
    //                               allocs  pins  draws  lane  gstripe  cache  open  flat  handlers  locks  reads  writes
    ("raw LockHashMap::get",        [     0,    0,     0,    0,       0,     0,    0,    0,        0,     0,     0,      0]),
    ("raw BoostedHashMap::get",     [     0,    0,     0,    0,       0,     0,    0,    0,        0,     0,     0,      0]),
    ("empty atomic",                [   100,    0,     0,    0,       0,     0,    0,    0,        0,     0,     0,      0]),
    ("TVar read",                   [   100,  100,     0,    0,       0,     0,    0,    0,        0,     0,   100,      0]),
    ("TVar write",                  [   100,  100,   100,    0,       0,     0,    0,    0,        0,     0,     0,    100]),
    ("TVar read-modify-write",      [   100,  100,   100,    0,       0,     0,    0,    0,        0,     0,   100,    100]),
    ("64-var read",                 [   100, 6400,     0,    0,       0,     0,    0,    0,        0,     0,  6400,      0]),
    ("64-var write",                [   100, 6400,   100,    0,       0,     0,    0,    0,        0,     0,     0,   6400]),
    ("closed-nested rmw",           [   100,  100,   100,    0,       0,     0,    0,    0,        0,     0,   100,    100]),
    ("open-nested rmw",             [   100,  100,   100,  100,       0,     0,  100,    0,        0,     0,     0,      0]),
    ("commit-handler registration", [   200,    0,     0,  100,       0,     0,    0,    0,      100,     0,     0,      0]),
    ("bare TxHashMap get",          [   100,  200,     0,    0,       0,     0,    0,    0,        0,     0,   200,      0]),
    ("boosted map get",             [   900,    0,     0,  100,     100,     0,    0,  100,      100,   100,     0,      0]),
    ("boosted map put",             [  1000,    0,     0,  100,     100,     0,    0,  100,      100,   100,     0,      0]),
    ("boosted map put_discard",     [   900,    0,     0,  100,     100,     0,    0,    0,      100,     0,     0,      0]),
    ("TVar map get",                [  1000,  200,     0,  100,     100,     0,    0,  100,      100,   100,     0,      0]),
    ("TVar map put",                [  1200,  200,   100,  100,     100,     0,    0,  100,      100,   100,     0,      0]),
    ("TVar map put_discard",        [  1000,    0,   100,  100,     100,     0,    0,    0,      100,     0,     0,      0]),
    ("sorted map get",              [  1283, 1015,     0,  100,     100,     0,    0,  100,      100,   100,     0,      0]),
    ("sorted map put",              [  1583, 1015,   100,  100,     100,     0,    0,  100,      100,   100,     0,      0]),
    ("sorted map range_entries",    [  1100, 2711,     0,  100,    1800,     0,    0, 3400,      100,   100,     0,      0]),
    ("queue offer",                 [   700,    0,   100,  100,     100,     0,    0,    0,      100,     0,     0,      0]),
    ("queue poll",                  [   600,  100,   100,  200,     100,     0,  100,    0,      100,     0,     0,      0]),
    ("atomic_read TVar map get",    [   100,    0,     0,    0,       0,     0,    0,    0,        0,     0,     0,      0]),
    ("jbb NewOrder",                [  4100,  300,  3057,  200,     300,     0,  100,    0,      300,     0,   599,    499]),
    ("jbb Delivery",                [  3382, 1296,  1212,  100,     400,   100,    0,  400,      200,   400,   200,    100]),
];

fn stm_rows(ladder: &mut Ladder) {
    let lock_map = LockHashMap::new();
    let boosted = BoostedHashMap::new();
    for k in 0..KEYS {
        lock_map.insert(k, k);
        boosted.insert(k, k);
    }
    ladder.row("raw LockHashMap::get", &[], |i| {
        black_box(lock_map.get(&key(i)));
        [0, 0]
    });
    ladder.row("raw BoostedHashMap::get", &[], |i| {
        black_box(boosted.get(&key(i)));
        [0, 0]
    });

    ladder.row("empty atomic", &[], |_| txn(|_| {}));
    let v = TVar::new(42u64);
    ladder.row("TVar read", &[], |_| atomic(|tx| done(v.read(tx), tx)));
    ladder.row("TVar write", &[], |i| {
        atomic(|tx| {
            v.write(tx, i);
            done((), tx)
        })
    });
    ladder.row("TVar read-modify-write", &[], |_| txn(|tx| rmw(tx, &v)));
    let vars: Vec<TVar<u64>> = (0..64).map(TVar::new).collect();
    ladder.row("64-var read", &[], |_| {
        atomic(|tx| done(vars.iter().map(|v| v.read(tx)).sum::<u64>(), tx))
    });
    ladder.row("64-var write", &[], |i| {
        atomic(|tx| {
            for v in &vars {
                v.write(tx, i);
            }
            done((), tx)
        })
    });
    ladder.row("closed-nested rmw", &[], |_| {
        txn(|tx| tx.closed(|tx| rmw(tx, &v)))
    });
    ladder.row("open-nested rmw", &[], |_| {
        txn(|tx| tx.open(|otx| rmw(otx, &v)))
    });
    ladder.row("commit-handler registration", &[], |_| {
        // The no-op handler has nothing to compensate.
        txn(|tx| tx.on_commit_top(|_| {})) // txlint: allow(TX004)
    });

    let bare = TxHashMap::new();
    atomic(|tx| {
        for k in 0..KEYS {
            let _ = bare.insert(tx, k, k);
        }
    });
    ladder.row("bare TxHashMap get", &[], |i| {
        txn(|tx| bare.get(tx, &key(i)))
    });
}

fn map_rows<B: MapBackend<u64, u64>>(
    ladder: &mut Ladder,
    kind: &str,
    map: TransactionalMap<u64, u64, B>,
) {
    atomic(|tx| (0..KEYS).for_each(|k| map.put_discard(tx, k, k)));
    let stats = [map.semantic_stats()];
    ladder.row(format!("{kind} map get"), &stats, |i| {
        txn(|tx| map.get(tx, &key(i)))
    });
    ladder.row(format!("{kind} map put"), &stats, |i| {
        txn(|tx| map.put(tx, key(i), i))
    });
    ladder.row(format!("{kind} map put_discard"), &stats, |i| {
        txn(|tx| map.put_discard(tx, key(i), i))
    });
}

fn sorted_map_rows(ladder: &mut Ladder) {
    let sorted = TransactionalSortedMap::new();
    atomic(|tx| (0..KEYS).for_each(|k| sorted.put_discard(tx, k, k)));
    let stats = [sorted.semantic_stats()];
    ladder.row("sorted map get", &stats, |i| {
        txn(|tx| sorted.get(tx, &key(i)))
    });
    ladder.row("sorted map put", &stats, |i| {
        txn(|tx| sorted.put(tx, key(i), i))
    });
    ladder.row("sorted map range_entries", &stats, |i| {
        txn(|tx| {
            let lo = i * 7 % (KEYS - RANGE);
            let entries =
                sorted.range_entries(tx, Bound::Included(lo), Bound::Excluded(lo + RANGE));
            assert_eq!(entries.len() as u64, RANGE);
        })
    });
}

fn queue_and_snapshot_rows(ladder: &mut Ladder) {
    // The offers leave WARM + TXNS items, which the polls take back.
    let queue = TransactionalQueue::new();
    let stats = [queue.semantic_stats()];
    ladder.row("queue offer", &stats, |i| txn(|tx| queue.offer(tx, i)));
    ladder.row("queue poll", &stats, |_| {
        txn(|tx| queue.poll(tx).expect("the offers left an item"))
    });

    let map = TransactionalMap::new();
    atomic(|tx| (0..KEYS).for_each(|k| map.put_discard(tx, k, k)));
    ladder.row("atomic_read TVar map get", &[map.semantic_stats()], |i| {
        atomic_read(|tx| done(map.get(tx, &key(i)), tx))
    });
}

fn jbb_rows(ladder: &mut Ladder) {
    let w = TmWarehouse::new(TmConfig::Transactional);
    let mut stats: Vec<&SemanticStats> = Vec::new();
    for d in &w.districts {
        if let JSorted::Wrapped(m) = &d.order_table {
            stats.push(m.semantic_stats());
        }
        if let JSorted::Wrapped(m) = &d.new_order_table {
            stats.push(m.semantic_stats());
        }
    }
    if let JMap::Wrapped(m) = &w.customer_index {
        stats.push(m.semantic_stats());
    }
    if let JMap::Wrapped(m) = &w.history_table {
        stats.push(m.semantic_stats());
    }
    let mut rng = TxnRng::new(1, 0, 0);
    ladder.row("jbb NewOrder", &stats, |_| {
        txn(|tx| w.new_order(tx, &mut rng, 0))
    });
    // A backlog deep enough that every Delivery finds an order in the
    // district it draws.
    for _ in 0..4 * TXNS {
        atomic(|tx| w.new_order(tx, &mut rng, 0));
    }
    let undelivered = || {
        w.districts
            .iter()
            .map(|d| d.new_order_table.committed_len() as u64)
            .sum::<u64>()
    };
    let backlog = undelivered();
    ladder.row("jbb Delivery", &stats, |_| {
        txn(|tx| w.delivery(tx, &mut rng, 0))
    });
    assert_eq!(
        undelivered(),
        backlog - WARM - TXNS,
        "a Delivery found no order"
    );
    w.check_invariants().expect("the warehouse is consistent");
}

/// A total as a per-transaction mean.
fn per_txn(total: u64) -> String {
    format!("{:.2}", total as f64 / TXNS as f64)
}

#[test]
fn every_cell_of_the_cost_ladder_is_pinned() {
    let mut ladder = Ladder::default();
    stm_rows(&mut ladder);
    map_rows(&mut ladder, "boosted", TransactionalMap::boosted());
    map_rows(&mut ladder, "TVar", TransactionalMap::new());
    sorted_map_rows(&mut ladder);
    queue_and_snapshot_rows(&mut ladder);
    jbb_rows(&mut ladder);
    let rows = ladder.0;

    println!("cost ladder: counts per warm transaction, mean of {TXNS}");
    println!(
        "{:<28}{}",
        "row",
        COLUMNS.map(|c| format!(" {c:>8}")).concat()
    );
    for (name, counts) in &rows {
        let cells = counts.map(|n| format!(" {:>8}", per_txn(n)));
        println!("{name:<28}{}", cells.concat());
    }

    let names: Vec<&str> = rows.iter().map(|(name, _)| name.as_str()).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned, "the ladder's rows are not the pinned rows");
    let mut moved = Vec::new();
    for ((name, counts), (_, want)) in rows.iter().zip(&PINNED) {
        for ((column, &got), &want) in COLUMNS.iter().zip(counts).zip(want) {
            if got != want {
                moved.push(format!(
                    "{name}: {column} counted {got} ({} per txn), pinned {want} ({} per txn)",
                    per_txn(got),
                    per_txn(want)
                ));
            }
        }
    }
    assert!(
        moved.is_empty(),
        "cells of the cost ladder moved (totals over {TXNS} transactions):\n{}",
        moved.join("\n")
    );
}
