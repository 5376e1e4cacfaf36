//! Memory footprint gates for the TVar-built structures.
//!
//! Most of the memory of a workload built from `TVar`s is the vars
//! themselves, so what one var costs, what a tree node costs, what a hash
//! map's table and buckets cost, what a var keeps alive once a snapshot
//! reader's pin ends and what a rewrite of a buffered var costs are gated
//! here with a counting global allocator (counting only on the measuring
//! thread), and so is the label table, which keeps one entry per labelled
//! block and names nothing once its owner is gone.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};
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

/// Held by the test that pins a snapshot and by the tests that count live
/// blocks or a commit's allocations: a publish under a pin keeps a history
/// chain, which is neither node nor bucket memory.
static PIN_LOCK: Mutex<()> = Mutex::new(());

fn pin_lock() -> MutexGuard<'static, ()> {
    PIN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Held by the tests that count labels: the label table is process-wide.
static LABEL_LOCK: Mutex<()> = Mutex::new(());

fn label_lock() -> MutexGuard<'static, ()> {
    LABEL_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// What `f` did to this thread's heap.
struct Counted {
    allocs: u64,
    largest: usize,
    net_bytes: i64,
    net_blocks: i64,
}

fn counted<R>(f: impl FnOnce() -> R) -> (R, Counted) {
    start_counting();
    let r = f();
    (r, stop_counting())
}

/// Start counting this thread's heap from zero, as [`counted`] does around
/// its closure.
fn start_counting() {
    ALLOCS.with(|n| n.set(0));
    LARGEST.with(|m| m.set(0));
    NET_BYTES.with(|b| b.set(0));
    NET_BLOCKS.with(|b| b.set(0));
    COUNTING.with(|on| on.set(true));
}

/// What this thread did to its heap since [`start_counting`].
fn stop_counting() -> Counted {
    COUNTING.with(|on| on.set(false));
    Counted {
        allocs: ALLOCS.with(Cell::get),
        largest: LARGEST.with(Cell::get),
        net_bytes: NET_BYTES.with(Cell::get),
        net_blocks: NET_BLOCKS.with(Cell::get),
    }
}

#[test]
fn a_u64_var_is_one_block_of_at_most_32_bytes() {
    // The `Arc`'s two counts and a 16-byte cell (its word and its value);
    // 32 bytes plus glibc's 8-byte chunk header is one 48-byte chunk.
    let (v, c) = counted(|| TVar::new(0u64));
    println!(
        "TVar::new(0u64): {} allocation(s), {} bytes",
        c.allocs, c.largest
    );
    assert_eq!(c.allocs, 1, "a var is one allocation");
    assert!(c.largest <= 32, "a u64 var takes {} bytes", c.largest);
    assert_eq!(v.read_committed(), 0);
}

#[test]
fn a_tree_node_is_one_block_of_at_most_112_bytes() {
    // A node's six vars (key, value, color and three links) live inline in
    // the node, 16 bytes each: what an insert leaves behind is one block
    // per key.
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
        c.net_bytes <= 112 * KEYS as i64,
        "an inserted key left {} live bytes",
        c.net_bytes / KEYS as i64
    );
}

#[test]
fn an_empty_hash_map_is_a_constant_number_of_blocks() {
    // The header, the table and its one block of bucket vars (an empty
    // bucket is `None`): nothing per bucket.
    let (m, c) = counted(|| TxHashMap::<u64, u64>::with_capacity(8192));
    println!("TxHashMap::with_capacity(8192): {} allocations", c.allocs);
    assert!(c.allocs <= 4, "{} allocations for 8192 buckets", c.allocs);
    assert!(atomic(|tx| m.is_empty(tx)));
}

/// The bucket `key` falls in among `cap` buckets: the map hashes keys with
/// a default `DefaultHasher`, so that its layout is reproducible.
fn bucket_of(key: u64, cap: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) & (cap - 1)
}

#[test]
fn a_fresh_key_in_an_empty_bucket_is_one_block() {
    const CAP: usize = 8192;
    const KEYS: usize = 64;
    let _no_pin = pin_lock();
    let m: TxHashMap<u64, u64> = TxHashMap::with_capacity(CAP);
    // Warm up this thread's transaction state on a bucket no key below
    // shares.
    let mut used = HashSet::from([bucket_of(u64::MAX, CAP)]);
    atomic(|tx| m.insert(tx, u64::MAX, 0));
    let keys: Vec<u64> = (0..)
        .filter(|&k| used.insert(bucket_of(k, CAP)))
        .take(KEYS)
        .collect();
    let ((), c) = counted(|| {
        for &k in &keys {
            atomic(|tx| m.insert(tx, k, k));
        }
    });
    println!(
        "{KEYS} fresh keys left {} live block(s), {} live bytes",
        c.net_blocks, c.net_bytes
    );
    assert_eq!(
        c.net_blocks, KEYS as i64,
        "fresh keys did not leave one live block each"
    );
    assert!(
        c.net_bytes <= 32 * KEYS as i64,
        "a fresh key left {} live bytes",
        c.net_bytes / KEYS as i64
    );
}

#[test]
fn a_resize_allocates_only_for_buckets_that_split() {
    const CAP: usize = 1024;
    // 3/4 full is the most a table holds: the next new key resizes it.
    let full = (CAP * 3 / 4) as u64;
    let _no_pin = pin_lock();
    let m: TxHashMap<u64, u64> = TxHashMap::with_capacity(CAP);
    atomic(|tx| {
        for k in 0..full {
            m.insert(tx, k, k);
        }
    });
    let (prev, c) = counted(|| atomic(|tx| m.insert(tx, full, full)));
    assert_eq!(prev, None);
    let non_empty = |cap| {
        (0..=full)
            .map(|k| bucket_of(k, cap))
            .collect::<HashSet<_>>()
            .len() as u64
    };
    // An old bucket fills one new bucket, or two when its entries split
    // across both halves; only the split ones are copied.
    let split = non_empty(2 * CAP) - non_empty(CAP);
    println!(
        "a resize to {} buckets ({split} buckets split): {} allocations",
        2 * CAP,
        c.allocs
    );
    assert!(
        c.allocs <= 2 * split + 64,
        "{} allocations for {split} buckets that split",
        c.allocs
    );
    assert_eq!(atomic(|tx| m.len(tx)), full as usize + 1);
}

/// A snapshot of `v` during which another thread publishes to it
/// `publishes` times, counting this thread's heap from the end of the
/// snapshot's body until its unpin has returned. Returns the value read and
/// the chain's depth under the pin, with the count.
fn snapshot_ending_counted(v: &TVar<u64>, publishes: u64) -> (u64, usize, Counted) {
    let (seen, depth) = atomic_read(|tx| {
        let x = v.read(tx);
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 1..=publishes {
                    atomic(|tx| v.write(tx, i));
                }
            });
        });
        let depth = v.chain_len();
        start_counting();
        (x, depth)
    });
    (seen, depth, stop_counting())
}

#[test]
fn a_chain_is_freed_by_the_last_unpin() {
    let _pin = pin_lock();
    // The same snapshot over a var no publish touches is the baseline:
    // whatever ending a snapshot allocates it frees again. Each publish
    // under the pin keeps its outgoing head on the chain.
    let control = TVar::new(0u64);
    snapshot_ending_counted(&control, 0);
    let (_, _, base) = snapshot_ending_counted(&control, 0);
    let v = TVar::new(0u64);
    let (seen, depth, c) = snapshot_ending_counted(&v, 3);
    assert_eq!(seen, 0);
    assert!(depth > 0, "no chain was built under the pin");
    assert_eq!(v.chain_len(), 0, "the last unpin left the chain");
    let freed = base.net_bytes - c.net_bytes;
    let entries = (depth * std::mem::size_of::<(u64, u64)>()) as i64;
    println!("the last unpin freed {freed} bytes ({depth} entries)");
    assert!(
        freed >= entries,
        "the last unpin freed {freed} bytes; the chain held {entries}"
    );
}

#[test]
fn a_rewrite_allocates_nothing() {
    // A rewrite replaces the buffered value in its redo-log entry.
    const WRITES: u64 = 1_000;
    let _no_pin = pin_lock();
    let v = TVar::new(0u64);
    atomic(|tx| v.write(tx, 1));
    let ((), once) = counted(|| atomic(|tx| v.write(tx, 2)));
    let ((), many) = counted(|| {
        atomic(|tx| {
            for i in 0..WRITES {
                v.write(tx, i);
            }
        })
    });
    println!(
        "a transaction writing one var once: {} allocation(s); {WRITES} times: {}",
        once.allocs, many.allocs
    );
    assert!(
        many.allocs <= once.allocs,
        "{WRITES} writes of one var made {} allocations, one write {}",
        many.allocs,
        once.allocs
    );
    assert_eq!(v.read_committed(), WRITES - 1);
}

/// The ids of a map's header and of every bucket of its current table.
fn var_ids(m: &TxHashMap<u64, u64>) -> Vec<stm::VarId> {
    atomic(|tx| {
        let _ = m.entries(tx);
        tx.read_ids()
    })
}

#[test]
fn a_labelled_table_is_two_labels_and_a_handful_of_allocations() {
    const CAP: usize = 1024;
    let _labels = label_lock();
    let m: TxHashMap<u64, u64> = TxHashMap::with_capacity(CAP);
    let start = stm::label_count();
    let ((), c) = counted(|| m.set_label("stock"));
    let added = stm::label_count() - start;
    println!(
        "labelling {CAP} buckets: {added} label(s), {} allocation(s)",
        c.allocs
    );
    assert_eq!(added, 2, "the header and the bucket block");
    assert!(c.allocs <= 8, "{} allocations to label a table", c.allocs);
}

#[test]
fn every_bucket_resolves_while_its_table_lives_and_none_after() {
    const CAP: usize = 1024;
    let _labels = label_lock();
    let m: TxHashMap<u64, u64> = TxHashMap::with_capacity(CAP);
    m.set_label("stock");
    let ids = var_ids(&m);
    assert_eq!(ids.len(), CAP + 1);
    for &id in &ids {
        let name = if id == m.header_var_id() {
            "stock"
        } else {
            "stock.buckets"
        };
        assert_eq!(stm::var_label(id).as_deref(), Some(name));
    }
    let buckets = ids.iter().filter(|&&id| id != m.header_var_id());
    let old = *buckets.clone().min().unwrap()..=*buckets.max().unwrap();
    drop(m);
    // A fresh table of the same size may take the dead one's memory; its
    // cells are unlabelled all the same.
    let mut reused = 0;
    for _ in 0..8 {
        let fresh: TxHashMap<u64, u64> = TxHashMap::with_capacity(CAP);
        let ids = var_ids(&fresh);
        reused += usize::from(ids.iter().any(|id| old.contains(id)));
        for &id in &ids {
            assert_eq!(stm::var_label(id), None, "a dead table's label resolved");
        }
    }
    println!("{reused} of 8 fresh tables reused the dropped table's memory");
}

#[test]
fn labels_die_with_their_vars() {
    let _labels = label_lock();
    let start = stm::label_count();
    for i in 0..100 {
        let m: TxHashMap<u64, u64> = TxHashMap::with_capacity(64);
        m.set_label(&format!("map{i}"));
        // The header and its block of 64 buckets.
        assert_eq!(stm::label_count(), start + 2);
    }
    assert_eq!(stm::label_count(), start, "dropped maps left labels behind");
}
