//! Quickstart: wrap a map in a `TransactionalMap` and run compound atomic
//! operations from many threads without unnecessary conflicts.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use stm::atomic;
use txcollections::TransactionalMap;

fn main() {
    // A TransactionalMap is a drop-in wrapper: it exposes Map operations and
    // can wrap any transactional map backend (here the default TxHashMap).
    let scores: Arc<TransactionalMap<String, u64>> = Arc::new(TransactionalMap::new());

    let players = ["alice", "bob", "carol", "dave"];
    let rounds = 2_000;

    let before = stm::global_stats();
    std::thread::scope(|s| {
        for (t, player) in players.iter().enumerate() {
            let scores = scores.clone();
            s.spawn(move || {
                for round in 0..rounds {
                    // One atomic transaction composing several operations:
                    // read-modify-write of this player's score plus a blind
                    // write of a bookkeeping key. Transactions of different
                    // players commute — no semantic conflicts — even though
                    // they share one hash map (and would collide on its size
                    // field without the wrapper).
                    atomic(|tx| {
                        let key = player.to_string();
                        let cur = scores.get(tx, &key).unwrap_or(0);
                        scores.put(tx, key, cur + (round % 7) + (t as u64));
                        scores.put_discard(tx, format!("last-round-{player}"), round);
                    });
                }
            });
        }
    });
    let stats = stm::global_stats().diff(&before);

    println!("final scores:");
    let entries = atomic(|tx| scores.entries(tx));
    let mut entries: Vec<_> = entries
        .into_iter()
        .filter(|(k, _)| !k.starts_with("last-"))
        .collect();
    entries.sort();
    for (k, v) in entries {
        println!("  {k:8} {v}");
    }
    println!(
        "committed {} transactions; {} aborted on memory conflicts, {} on semantic conflicts",
        stats.commits, stats.aborts_read_invalid, stats.aborts_doomed
    );
    println!(
        "semantic conflicts detected by the map itself: {}",
        scores.semantic_stats().total()
    );
}
