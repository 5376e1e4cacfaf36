//! Delaunay-style work-queue refinement (the motivating example for
//! `TransactionalQueue`, paper §3.3, after Kulkarni et al.).
//!
//! Workers repeatedly take a "bad triangle" from a shared queue, refine it
//! (which may produce new bad triangles that go back on the queue), and
//! occasionally abort mid-refinement. The queue's reduced-isolation design
//! guarantees:
//!
//! * work items produced by an aborted refinement are never seen by others;
//! * work items taken by an aborted refinement are returned to the queue;
//! * every item is processed exactly once.
//!
//! ```sh
//! cargo run --release --example delaunay_worklist
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use stm::atomic;
use txcollections::{Channel, TransactionalQueue};

/// A "triangle" with a quality score; refining a bad one may create up to
/// two new (better) triangles.
#[derive(Clone, Debug)]
struct Triangle {
    id: u64,
    badness: u32,
}

fn main() {
    let queue: Arc<TransactionalQueue<Triangle>> = Arc::new(TransactionalQueue::new());
    let next_id = Arc::new(AtomicU64::new(1_000_000));
    let processed = Arc::new(parking_lot::Mutex::new(Vec::<u64>::new()));
    let injected_aborts = Arc::new(AtomicU64::new(0));

    // Seed the mesh with 200 bad triangles of varying badness.
    atomic(|tx| {
        for id in 0..200u64 {
            queue.put(
                tx,
                Triangle {
                    id,
                    badness: (id % 4) as u32 + 1,
                },
            );
        }
    });

    std::thread::scope(|s| {
        for w in 0..4u64 {
            let queue = queue.clone();
            let next_id = next_id.clone();
            let processed = processed.clone();
            let injected = injected_aborts.clone();
            s.spawn(move || {
                let mut idle = 0;
                let mut x = 0x2545_F491_4F6C_DD1Du64 ^ w;
                let mut rng = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                while idle < 200 {
                    // Fail at most once per logical refinement, so the retry
                    // succeeds (the closure re-executes after the abort).
                    let mut fail_once = rng() % 16 == 0;
                    let got = atomic(|tx| {
                        let tri = queue.poll(tx)?;
                        // "Refine": a triangle of badness > 1 splits into two
                        // better ones, enqueued atomically with the take.
                        if tri.badness > 1 {
                            for _ in 0..2 {
                                let id = next_id.fetch_add(1, Ordering::Relaxed);
                                queue.put(
                                    tx,
                                    Triangle {
                                        id,
                                        badness: tri.badness - 1,
                                    },
                                );
                            }
                        }
                        // Simulated failure mid-refinement: the taken
                        // triangle must return to the queue, the enqueued
                        // children must vanish.
                        if fail_once {
                            fail_once = false;
                            injected.fetch_add(1, Ordering::Relaxed);
                            stm::abort_and_retry();
                        }
                        Some(tri.id)
                    });
                    match got {
                        Some(id) => {
                            processed.lock().push(id);
                            idle = 0;
                        }
                        None => {
                            idle += 1;
                            std::thread::yield_now();
                        }
                    }
                }
            });
        }
    });

    let mut done = processed.lock().clone();
    let n = done.len();
    done.sort_unstable();
    done.dedup();
    assert_eq!(done.len(), n, "a triangle was refined twice!");
    let leftover = atomic(|tx| queue.poll(tx));
    assert!(leftover.is_none(), "work left behind");
    println!(
        "refined {} triangles across 4 workers ({} injected aborts) — \
         nothing lost, nothing duplicated",
        n,
        injected_aborts.load(Ordering::Relaxed)
    );
}
