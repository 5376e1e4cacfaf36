//! Integration tests for the conflict-provenance trace layer: lifecycle
//! pairing, doom attribution, overflow accounting, and off-by-default.
//!
//! Trace state is process-global (per-thread rings plus a shared registry),
//! so the tests serialize on a file-local mutex. Each integration-test file
//! is its own process, so this suffices.

use std::collections::HashMap;
use std::sync::Mutex;
use stm::trace::{snapshot, TraceConfig, TraceEvent};
use stm::{atomic, global_stats, speculate, AbortCause, TVar};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// A doomed attempt's abort event carries the cause and the dooming
/// attempt's id, and the stats counters agree (one doom issued, one
/// absorbed).
#[test]
fn doomed_abort_attributes_culprit() {
    let _g = serialize();
    let before = global_stats();
    let guard = TraceConfig::default().enable();

    let a = TVar::new(0u64);
    let b = TVar::new(0u64);

    // Speculate the victim: body has run, writes are buffered, commit is
    // pending — the window in which a committing conflictor dooms it.
    let (_, victim) = speculate(|tx| b.write(tx, 1), 0).expect("victim body cannot abort");
    let victim_id = victim.handle().id();

    // The doomer commits first, then issues the doom with its own id as
    // provenance (in the full system the collection layer's commit handler
    // does this through `DoomCtx`).
    let (_, doomer) = speculate(|tx| a.write(tx, 7), 0).expect("doomer body cannot abort");
    let doomer_id = doomer.handle().id();
    doomer.commit();
    assert!(victim.handle().doom_from(doomer_id), "doom must land");
    victim.abort(AbortCause::Doomed);

    let snap = snapshot();
    drop(guard);

    assert!(snap
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::TxnBegin { txn, .. } if *txn == victim_id)));
    assert!(snap
        .events
        .iter()
        .any(|e| matches!(e, TraceEvent::TxnCommit { txn, .. } if *txn == doomer_id)));
    assert!(
        snap.events.iter().any(|e| matches!(
            e,
            TraceEvent::TxnAbort { txn, cause: AbortCause::Doomed, culprit, .. }
                if *txn == victim_id && *culprit == doomer_id
        )),
        "expected an abort event attributing the doom to {doomer_id}: {:?}",
        snap.events
    );

    let diff = global_stats().diff(&before);
    assert!(diff.dooms_issued >= 1);
    assert!(diff.aborts_doomed >= 1);
}

/// Under a contended retry-heavy workload, every begun attempt reaches
/// exactly one terminal event: no dangling begins, no double terminals.
#[test]
fn no_dangling_begin_events_under_contention() {
    let _g = serialize();
    let guard = TraceConfig::default().enable();

    let counter = TVar::new(0u64);
    const THREADS: u64 = 3;
    const TXNS: u64 = 100;
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for _ in 0..TXNS {
                    atomic(|tx| {
                        let v = counter.read(tx);
                        counter.write(tx, v + 1);
                    });
                }
            });
        }
    });
    assert_eq!(atomic(|tx| counter.read(tx)), THREADS * TXNS);

    let snap = snapshot();
    drop(guard);

    // The pairing check is only meaningful if nothing was dropped.
    assert_eq!(snap.dropped, 0, "rings overflowed; enlarge or shrink load");

    let mut begins: HashMap<u64, u32> = HashMap::new();
    let mut terminals: HashMap<u64, u32> = HashMap::new();
    for e in &snap.events {
        match e {
            TraceEvent::TxnBegin { txn, .. } => *begins.entry(*txn).or_default() += 1,
            TraceEvent::TxnCommit { txn, .. } | TraceEvent::TxnAbort { txn, .. } => {
                *terminals.entry(*txn).or_default() += 1
            }
            _ => {}
        }
    }
    // The snapshot covers this test's attempts plus the read-back above;
    // restrict nothing — the invariant is global.
    for (txn, n) in &begins {
        assert_eq!(*n, 1, "attempt {txn} began {n} times");
        assert_eq!(
            terminals.get(txn),
            Some(&1),
            "attempt {txn} began but never committed or aborted (dangling begin)"
        );
    }
    for (txn, n) in &terminals {
        assert_eq!(*n, 1, "attempt {txn} has {n} terminal events");
        assert!(
            begins.contains_key(txn),
            "attempt {txn} terminated without a begin event"
        );
    }
    // Sanity: the workload actually produced the expected commit volume.
    let commits = snap
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::TxnCommit { .. }))
        .count() as u64;
    assert!(commits >= THREADS * TXNS);
}

/// A small ring drops the oldest events, keeps the newest, and accounts for
/// every drop both in the snapshot and in the global stats counter.
#[test]
fn ring_overflow_drops_oldest_and_counts() {
    let _g = serialize();
    let before = global_stats();
    let guard = TraceConfig { ring_slots: 16 }.enable();

    // A fresh thread gets a fresh ring at the configured (tiny) size. Each
    // transaction emits exactly two events here (begin + commit): 48 txns =
    // 96 events through 16 slots.
    let var = TVar::new(0u64);
    let ids: Vec<u64> = std::thread::spawn(move || {
        (0..48)
            .map(|i| {
                atomic(|tx| {
                    var.write(tx, i);
                    tx.handle().id()
                })
            })
            .collect()
    })
    .join()
    .unwrap();

    let snap = snapshot();
    drop(guard);

    // Drop-oldest: the surviving begin events are a suffix of the ids the
    // thread generated, in emission order.
    let surviving: Vec<u64> = snap
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::TxnBegin { txn, .. } if ids.contains(txn) => Some(*txn),
            _ => None,
        })
        .collect();
    assert!(!surviving.is_empty(), "ring lost everything");
    assert!(surviving.len() <= 16);
    assert_eq!(
        surviving,
        ids[ids.len() - surviving.len()..],
        "survivors must be the newest events, oldest dropped first"
    );

    // 96 events into 16 slots: exactly 80 dropped from that ring, all
    // visible both in the snapshot and in the stats counter.
    assert!(snap.dropped >= 80);
    let diff = global_stats().diff(&before);
    assert_eq!(diff.trace_events_dropped, snap.dropped);
}

/// With no guard live, the commit hot loop emits nothing — events from this
/// test's transactions must not appear in any ring.
#[test]
fn disabled_tracing_emits_nothing() {
    let _g = serialize();
    let before = global_stats();
    assert!(!stm::trace::enabled());

    let var = TVar::new(0u64);
    let id = atomic(|tx| {
        var.write(tx, 9);
        tx.handle().id()
    });

    let snap = snapshot();
    assert!(
        !snap.events.iter().any(|e| matches!(
            e,
            TraceEvent::TxnBegin { txn, .. } | TraceEvent::TxnCommit { txn, .. } if *txn == id
        )),
        "disabled tracing must not record the transaction"
    );
    assert_eq!(global_stats().diff(&before).trace_events_dropped, 0);
}
