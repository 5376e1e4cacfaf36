//! The UID-generator isolation/serializability trade (paper §1 and §6.3).
//!
//! Two ways to draw order ids from a shared counter inside long
//! transactions:
//!
//! * **serializable** — the draw is a plain transactional read-modify-write:
//!   ids are gapless, but every two drawing transactions conflict, so the
//!   counter serializes the whole workload;
//! * **open-nested** — the draw commits immediately and the parent keeps no
//!   dependency: no conflicts, but aborted parents leave gaps (exactly the
//!   monotonically-increasing-identifier example the database community uses
//!   to motivate reduced isolation).
//!
//! The example measures both under identical contention and verifies
//! uniqueness in both cases.
//!
//! ```sh
//! cargo run --release --example uid_generator
//! ```

use std::sync::Arc;
use stm::atomic;
use txcollections::UidGenerator;

const THREADS: u64 = 4;
const DRAWS: usize = 400;

fn run(use_open_nesting: bool) -> (Vec<i64>, stm::StatsSnapshot, std::time::Duration) {
    let gen = Arc::new(UidGenerator::starting_at(0));
    let ids = Arc::new(parking_lot::Mutex::new(Vec::new()));
    let before = stm::global_stats();
    let start = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let gen = gen.clone();
            let ids = ids.clone();
            s.spawn(move || {
                for i in 0..DRAWS {
                    let id = atomic(|tx| {
                        let id = if use_open_nesting {
                            gen.next(tx)
                        } else {
                            gen.next_serializable(tx)
                        };
                        // Long transaction: work after the draw, widening the
                        // conflict window of the serializable variant.
                        let mut acc = t + i as u64;
                        for _ in 0..2_000 {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                        }
                        std::hint::black_box(acc);
                        id
                    });
                    ids.lock().push(id);
                }
            });
        }
    });
    let elapsed = start.elapsed();
    let stats = stm::global_stats().diff(&before);
    let out = ids.lock().clone();
    (out, stats, elapsed)
}

fn report(name: &str, ids: &[i64], stats: &stm::StatsSnapshot, took: std::time::Duration) {
    let mut sorted = ids.to_vec();
    sorted.sort_unstable();
    let unique = {
        let mut v = sorted.clone();
        v.dedup();
        v.len()
    };
    let max = *sorted.last().unwrap();
    let gaps = (max + 1) as usize - unique;
    println!(
        "{name:14} drew {unique} unique ids (0..={max}, {gaps} gaps) in {took:9.2?} \
         — {} aborts",
        stats.aborts()
    );
    assert_eq!(unique, ids.len(), "duplicate ids issued!");
}

fn main() {
    let (ids, stats, took) = run(false);
    report("serializable", &ids, &stats, took);

    let (ids, stats, took) = run(true);
    report("open-nested", &ids, &stats, took);

    println!(
        "\nthe open-nested generator trades gapless ids (serializability) for \
         conflict-freedom — the structured isolation reduction of §3.3/§6.3"
    );
}
