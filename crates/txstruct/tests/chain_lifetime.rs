//! How long snapshot history lives: the version chains kept for snapshot
//! readers end with the last pin. A tree rebalanced under a pin frees every
//! value once the pin ends and the tree is dropped, and pins, publishes,
//! drains and chain lookups racing one another serve every snapshot its own
//! values, never a drained entry.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use stm::{atomic, atomic_read, global_stats, TVar};
use txstruct::TxTreeMap;

/// Held by every test here: a pin live in one would keep the other's last
/// unpin from draining.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Live [`Counted`] values.
static LIVE: AtomicI64 = AtomicI64::new(0);

/// A value that counts its live copies in [`LIVE`].
struct Counted(u64);

impl Counted {
    fn new(k: u64) -> Self {
        LIVE.fetch_add(1, Ordering::Relaxed);
        Counted(k)
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        Counted::new(self.0)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        LIVE.fetch_sub(1, Ordering::Relaxed);
    }
}

#[test]
fn a_tree_rebalanced_under_a_pin_frees_every_value_once_dropped() {
    let _serial = serial();
    let map: TxTreeMap<u64, Counted> = TxTreeMap::new();
    for k in 0..128 {
        atomic(|tx| drop(map.insert(tx, k, Counted::new(k))));
    }
    // A snapshot blocked after one `get` keeps a pin live while 64 removes
    // and 64 inserts rotate the tree. Each rotation's old links stay on
    // their chains, and a node on a chain can sit in its child's new link:
    // a cycle that only the end of the history breaks.
    let (pinned, release) = (AtomicBool::new(false), AtomicBool::new(false));
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            atomic_read(|tx| {
                let first = map.get(tx, &0).map(|v| v.0);
                pinned.store(true, Ordering::Release);
                while !release.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
                first
            })
        });
        while !pinned.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        for k in 0..64 {
            atomic(|tx| drop(map.remove(tx, &k)));
        }
        for k in 128..192 {
            atomic(|tx| drop(map.insert(tx, k, Counted::new(k))));
        }
        release.store(true, Ordering::Release);
        assert_eq!(reader.join().unwrap(), Some(0), "the snapshot moved");
    });
    atomic(|tx| drop(map.insert(tx, 192, Counted::new(192))));
    drop(map);
    let live = LIVE.load(Ordering::Relaxed);
    assert_eq!(live, 0, "{live} values outlived the tree and every pin");
}

/// The value a commit of generation `g` writes to every var.
fn generation(g: u64) -> Arc<[u64; 4]> {
    Arc::new([g; 4])
}

/// Sets its flag when dropped, so a thread that panics still stops the
/// threads waiting for it.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

#[test]
fn drains_race_pins_publishes_and_chain_lookups() {
    const VARS: usize = 4;
    const SNAPSHOTS: u64 = 1_000;
    /// How far the publisher may run ahead of the generation the reader's
    /// snapshot read last: within the chain depth bound, so every snapshot
    /// read finds its entry unless something freed it.
    const AHEAD: u64 = 4;
    let _serial = serial();
    let vars: Vec<TVar<Arc<[u64; 4]>>> = (0..VARS).map(|_| TVar::new(generation(0))).collect();
    let head = || vars[0].read_committed()[0];
    let done = AtomicBool::new(false);
    let reading = AtomicU64::new(0);
    let before = global_stats();
    std::thread::scope(|s| {
        // One publisher: each commit writes its generation to every var.
        s.spawn(|| {
            for g in 1.. {
                while g > reading.load(Ordering::Acquire) + AHEAD {
                    if done.load(Ordering::Acquire) {
                        return;
                    }
                    std::thread::yield_now();
                }
                atomic(|tx| {
                    for v in &vars {
                        v.write(tx, generation(g));
                    }
                });
            }
        });
        // One pinner: each of its unpins may be the last, and drain.
        s.spawn(|| {
            while !done.load(Ordering::Acquire) {
                atomic_read(|_| ());
            }
        });
        // One reader: each snapshot waits for the head to move past it, then
        // reads every var below the head; it reads chain lengths both under
        // its pin and with none. A fallback would re-run the body validated,
        // where waiting for the head would fail every validation.
        s.spawn(|| {
            let _stop = SetOnDrop(&done);
            for _ in 0..SNAPSHOTS {
                let (first, rest) = atomic_read(|tx| {
                    let first = vars[0].read(tx);
                    reading.store(first[0], Ordering::Release);
                    while tx.in_snapshot() && head() == first[0] {
                        std::thread::yield_now();
                    }
                    let depth = vars[VARS - 1].chain_len();
                    assert!(depth <= 8, "a chain of {depth} entries under a pin");
                    let rest: Vec<_> = vars.iter().map(|v| v.read(tx)).collect();
                    (first, rest)
                });
                let g = first[0];
                assert_eq!(*first, [g; 4], "a read served a torn or freed value");
                for v in &rest {
                    assert_eq!(**v, [g; 4], "a snapshot read left generation {g}");
                }
                let depth = vars[VARS - 1].chain_len();
                assert!(depth <= 8, "a chain of {depth} entries with no pin");
            }
        });
    });
    let d = global_stats().diff(&before);
    assert_eq!(d.snapshot_fallbacks, 0, "a snapshot missed its entry");
    assert!(
        d.chain_entries_reclaimed >= SNAPSHOTS,
        "only {} chain entries were reclaimed",
        d.chain_entries_reclaimed
    );
    assert!(
        vars.iter().all(|v| v.chain_len() == 0),
        "a chain outlived every pin"
    );
    println!(
        "{SNAPSHOTS} snapshots read below the head, {} entries reclaimed",
        d.chain_entries_reclaimed
    );
}
