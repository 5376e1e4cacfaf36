//! End-to-end provenance: real collection executions must produce trace
//! events carrying the full conflict story — which class, which lock table,
//! which key, which `(observation, effect)` mode pair, and who doomed whom.
//!
//! Trace state is process-global, so the tests serialize on a file-local
//! mutex (each integration-test file is its own process).

use std::ops::Bound;
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;
use std::time::Duration;
use stm::trace::{snapshot, LockKind, TraceConfig, TraceEvent};
use stm::{atomic, AbortCause};
use txcollections::{
    key_hash64, mode_compatible, Channel, EagerPolicy, EagerTransactionalMap, ObsMode,
    TransactionalIntervalMap, TransactionalMap, TransactionalMultiset, TransactionalPriorityQueue,
    TransactionalQueue, TransactionalSortedMap, UpdateEffect,
};

static SERIAL: Mutex<()> = Mutex::new(());

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Two-transaction conflict with the prepared API: `reader` runs and stays
/// live, `writer` commits (dooming it), reader aborts. Returns their ids
/// `(victim, doomer)`.
fn doomed_pair(
    reader: impl FnOnce(&mut stm::Txn),
    writer: impl FnOnce(&mut stm::Txn),
) -> (u64, u64) {
    let (_, t1) = stm::speculate(reader, 0).expect("reader speculation must succeed");
    let (_, t2) = stm::speculate(writer, 0).expect("writer speculation must succeed");
    let (victim, doomer) = (t1.handle().id(), t2.handle().id());
    t2.commit();
    assert!(t1.handle().is_doomed(), "writer's commit must doom reader");
    t1.abort(AbortCause::Doomed);
    (victim, doomer)
}

/// A key-level map conflict yields a doom edge carrying the class name, the
/// key lock table, the key's hash, and the incompatible `(Key, KeyWrite)`
/// mode pair — plus the acquisition event that planted the lock.
#[test]
fn map_key_conflict_edge_carries_full_provenance() {
    let _g = serialize();
    let guard = TraceConfig::default().enable();

    let m: TransactionalMap<u32, String> = TransactionalMap::new();
    atomic(|tx| m.put_discard(tx, 1, "a".into()));

    let (r, w) = (m.clone(), m.clone());
    let (victim, doomer) = doomed_pair(
        move |tx| {
            assert_eq!(r.get(tx, &1).as_deref(), Some("a"));
        },
        move |tx| w.put_discard(tx, 1, "b".into()),
    );

    let snap = snapshot();
    drop(guard);

    let hash = key_hash64(&1u32);
    assert!(
        snap.events.iter().any(|e| matches!(
            e,
            TraceEvent::SemLockAcquired { txn, class, kind: LockKind::Key, key_hash, .. }
                if *txn == victim && class.name() == "map" && *key_hash == hash
        )),
        "reader's key-lock acquisition must be traced: {:?}",
        snap.events
    );
    let edge = snap
        .events
        .iter()
        .find_map(|e| match e {
            TraceEvent::DoomEdge {
                doomer: d,
                victim: v,
                class,
                kind,
                key_hash,
                obs,
                effect,
                compatible,
                ..
            } if *d == doomer && *v == victim => {
                Some((class.name(), *kind, *key_hash, *obs, *effect, *compatible))
            }
            _ => None,
        })
        .expect("the doom must be traced as a doomer -> victim edge");
    assert_eq!(edge.0, "map");
    assert_eq!(edge.1, LockKind::Key);
    assert_eq!(edge.2, hash);
    assert_eq!(edge.3, ObsMode::Key.code());
    assert_eq!(edge.4, UpdateEffect::KeyWrite.code());
    assert!(!edge.5, "a landed edge records an incompatible pair");
    // The recorded pair really is incompatible under the oracle (same key,
    // so overlap holds).
    assert!(!mode_compatible(ObsMode::Key, UpdateEffect::KeyWrite, true));
}

/// A size-level map conflict yields an edge in the size lock table with the
/// `(Size, SizeChange)` pair and no key hash (point lock).
#[test]
fn map_size_conflict_edge_has_point_lock_pair() {
    let _g = serialize();
    let guard = TraceConfig::default().enable();

    let m: TransactionalMap<u32, u64> = TransactionalMap::new();
    let (r, w) = (m.clone(), m.clone());
    let (victim, doomer) = doomed_pair(
        move |tx| {
            assert_eq!(r.size(tx), 0);
        },
        move |tx| w.put_discard(tx, 9, 9),
    );

    let snap = snapshot();
    drop(guard);
    assert!(
        snap.events.iter().any(|e| matches!(
            e,
            TraceEvent::DoomEdge { doomer: d, victim: v, class, kind: LockKind::Size, key_hash: 0, obs, effect, compatible: false, .. }
                if *d == doomer && *v == victim && class.name() == "map"
                    && *obs == ObsMode::Size.code() && *effect == UpdateEffect::SizeChange.code()
        )),
        "size doom must carry the (Size, SizeChange) pair: {:?}",
        snap.events
    );
}

/// A sorted-map endpoint conflict is attributed to the `sorted_map` class
/// and the endpoint lock table with the `(First, FirstChange)` pair.
#[test]
fn sorted_map_endpoint_conflict_names_its_class() {
    let _g = serialize();
    let guard = TraceConfig::default().enable();

    let m: TransactionalSortedMap<u32, u64> = TransactionalSortedMap::new();
    atomic(|tx| {
        m.put(tx, 5, 50);
    });

    let (r, w) = (m.clone(), m.clone());
    let (victim, doomer) = doomed_pair(
        move |tx| {
            // The first lock, and a range lock on the empty `..3`.
            assert_eq!(
                r.first_in_range(tx, Bound::Unbounded, Bound::Excluded(3)),
                None
            );
        },
        move |tx| {
            // A new least key outside `..3`: only the endpoint table dooms.
            w.put(tx, 4, 1);
        },
    );

    let snap = snapshot();
    drop(guard);
    let edges = snap
        .events
        .iter()
        .filter(|e| matches!(e, TraceEvent::DoomEdge { victim: v, .. } if *v == victim))
        .count();
    assert_eq!(edges, 1, "one doom, one edge: {:?}", snap.events);
    assert!(
        snap.events.iter().any(|e| matches!(
            e,
            TraceEvent::DoomEdge { doomer: d, victim: v, class, kind: LockKind::Endpoint, obs, effect, compatible: false, .. }
                if *d == doomer && *v == victim && class.name() == "sorted_map"
                    && *obs == ObsMode::First.code() && *effect == UpdateEffect::FirstChange.code()
        )),
        "endpoint doom must name sorted_map and the (First, FirstChange) pair: {:?}",
        snap.events
    );
}

/// Under the real threaded runtime, the doom edge and the victim's abort
/// event tell one consistent story: the abort's culprit is the edge's
/// doomer, and the edge's victim is the aborted attempt.
#[test]
fn threaded_doom_edge_agrees_with_abort_attribution() {
    let _g = serialize();
    let guard = TraceConfig::default().enable();
    const WAIT: Duration = Duration::from_secs(10);

    let m: TransactionalMap<u32, u64> = TransactionalMap::new();
    atomic(|tx| m.put_discard(tx, 1, 10));

    let (locked_tx, locked_rx) = mpsc::channel::<u64>();
    let (resume_tx, resume_rx) = mpsc::channel::<()>();
    let mut victim = 0u64;
    thread::scope(|s| {
        let m = &m;
        let reader = s.spawn(move || {
            let mut first = true;
            atomic(|tx| {
                let v = m.get(tx, &1);
                if first {
                    first = false;
                    // Test scaffolding: park the attempt so the writer's
                    // doom provably races a live key-lock holder.
                    locked_tx.send(tx.handle().id()).unwrap(); // txlint: allow(TX001) scaffolding, attempt is meant to die
                    resume_rx.recv_timeout(WAIT).unwrap();
                }
                v
            })
        });

        victim = locked_rx
            .recv_timeout(WAIT)
            .expect("reader never took its key lock");
        atomic(|tx| m.put_discard(tx, 1, 20));
        resume_tx.send(()).unwrap();
        let observed = reader.join().unwrap();
        assert_eq!(observed, Some(20), "retry must see the applied put");
    });

    let snap = snapshot();
    drop(guard);

    let (edge_doomer, edge_victim) = snap
        .events
        .iter()
        .find_map(|e| match e {
            TraceEvent::DoomEdge {
                doomer,
                victim: v,
                class,
                kind: LockKind::Key,
                ..
            } if *v == victim && class.name() == "map" => Some((*doomer, *v)),
            _ => None,
        })
        .expect("the threaded doom must appear as a key-lock edge");
    assert!(
        snap.events.iter().any(|e| matches!(
            e,
            TraceEvent::TxnAbort { txn, cause: AbortCause::Doomed, culprit, .. }
                if *txn == edge_victim && *culprit == edge_doomer
        )),
        "the victim's abort must attribute the same culprit: {:?}",
        snap.events
    );
}

/// The lock kinds the trace says transaction `txn` acquired and released,
/// each sorted and deduplicated.
fn lock_kinds(events: &[TraceEvent], txn: u64) -> (Vec<LockKind>, Vec<LockKind>) {
    let (mut acquired, mut released) = (Vec::new(), Vec::new());
    for e in events {
        match e {
            TraceEvent::SemLockAcquired { txn: t, kind, .. } if *t == txn => acquired.push(*kind),
            TraceEvent::SemLockReleased { txn: t, kind, .. } if *t == txn => released.push(*kind),
            _ => {}
        }
    }
    for kinds in [&mut acquired, &mut released] {
        kinds.sort_by_key(|k| *k as u8);
        kinds.dedup();
    }
    (acquired, released)
}

/// Run `body` once committed and once aborted, and check that each attempt
/// released every lock kind it acquired — which must be exactly `kinds`.
fn releases_every_kind(class: &str, kinds: &[LockKind], body: impl Fn(&mut stm::Txn)) {
    for commit in [true, false] {
        let guard = TraceConfig::default().enable();
        let (_, t) = stm::speculate(&body, 0).expect("speculation must succeed");
        let id = t.handle().id();
        if commit {
            t.commit();
        } else {
            t.abort(AbortCause::Explicit);
        }
        let snap = snapshot();
        drop(guard);
        let (acquired, released) = lock_kinds(&snap.events, id);
        assert_eq!(
            acquired, kinds,
            "{class} (commit={commit}): lock kinds acquired"
        );
        assert_eq!(
            released, acquired,
            "{class} (commit={commit}): every acquired lock kind must be released"
        );
    }
}

/// Every class's commit and abort handlers release — and trace the release
/// of — every kind of lock the transaction took.
#[test]
fn every_class_releases_every_lock_kind_it_acquired() {
    let _g = serialize();
    use LockKind::{Empty, Endpoint, Full, Key, Range, Size};

    let m: TransactionalMap<u32, u32> = TransactionalMap::new();
    releases_every_kind("map", &[Key, Size, Empty], |tx| {
        m.get(tx, &1);
        m.size(tx);
        m.is_empty_primitive(tx);
        m.put_discard(tx, 2, 2);
    });

    let sm: TransactionalSortedMap<u32, u32> = TransactionalSortedMap::new();
    atomic(|tx| sm.put_discard(tx, 10, 10));
    releases_every_kind("sorted_map", &[Key, Size, Empty, Endpoint, Range], |tx| {
        sm.first_key(tx);
        sm.last_key(tx);
        sm.entries(tx);
        sm.size(tx);
        sm.is_empty_primitive(tx);
        sm.put_discard(tx, 20, 20);
    });

    let ms: TransactionalMultiset<u32> = TransactionalMultiset::new();
    releases_every_kind("multiset", &[Key, Size, Empty], |tx| {
        ms.count(tx, &1);
        ms.len(tx);
        ms.is_empty_primitive(tx);
        ms.add(tx, 2);
    });

    let pq: TransactionalPriorityQueue<u32> = TransactionalPriorityQueue::new();
    atomic(|tx| pq.insert(tx, 5));
    releases_every_kind("priority_queue", &[Key, Size, Empty, Endpoint], |tx| {
        pq.peek_min(tx);
        pq.len(tx);
        pq.is_empty_primitive(tx);
        pq.insert(tx, 7);
    });

    let im: TransactionalIntervalMap<u32, u32> = TransactionalIntervalMap::new();
    releases_every_kind("interval_map", &[Size, Empty, Range], |tx| {
        im.stab(tx, &3);
        im.len(tx);
        im.is_empty_primitive(tx);
        im.insert(tx, 8, 9, 1);
    });

    let q: TransactionalQueue<u32> = TransactionalQueue::bounded(1);
    releases_every_kind("queue", &[Empty, Full], |tx| {
        assert_eq!(q.poll(tx), None);
        q.put(tx, 1);
        assert!(!q.offer(tx, 2));
        // Take the own item back, so a committed attempt leaves the queue
        // empty for the aborted one.
        assert_eq!(q.poll(tx), Some(1));
    });

    let em: EagerTransactionalMap<u32, u32> = EagerTransactionalMap::new(EagerPolicy::WriterWaits);
    releases_every_kind("eager_map", &[Key, Size], |tx| {
        em.get(tx, &1);
        em.size(tx);
        em.put(tx, 2, 2);
    });
}
