//! Never-aborting snapshot reads (PR 9): `stm::atomic_read` must serve a
//! consistent committed state with no aborts, version chains must stay
//! bounded and be reclaimed once no pin can reach them, and the one escape
//! hatch — a chain truncated past the snapshot — must be a *counted*
//! fallback to the validated path, never a wrong answer.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use stm::{atomic, atomic_read, global_stats, TVar};

/// Serializes the tests that assert exact deltas on process-global
/// counters; tests in this binary run concurrently otherwise.
static STATS_GATE: Mutex<()> = Mutex::new(());

fn spin_until(flag: &AtomicBool) {
    while !flag.load(Ordering::Acquire) {
        std::hint::spin_loop();
    }
}

/// A pinned snapshot is *stable*: re-reading a var after concurrent
/// commits returns the value at the snapshot version, the chain those
/// commits grew stays within the depth bound, and a later no-reader
/// commit reclaims the whole chain.
#[test]
fn pinned_snapshot_is_stable_and_chain_is_reclaimed() {
    let _g = STATS_GATE.lock().unwrap();
    let before = global_stats();
    let v = Arc::new(TVar::new(0u64));
    let go = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let first_run = AtomicBool::new(true);

    std::thread::scope(|s| {
        {
            let (v, go, done) = (v.clone(), go.clone(), done.clone());
            s.spawn(move || {
                spin_until(&go);
                // Six commits: enough to grow a chain, few enough to stay
                // under the depth bound so the pinned reader never loses
                // its entry (no fallback in this test).
                for _ in 0..6 {
                    atomic(|tx| {
                        let x = v.read(tx);
                        v.write(tx, x + 1);
                    });
                }
                done.store(true, Ordering::Release);
            });
        }
        let (x0, x1, pinned_chain) = atomic_read(|tx| {
            let x0 = v.read(tx);
            if first_run.swap(false, Ordering::AcqRel) {
                go.store(true, Ordering::Release);
                spin_until(&done);
            }
            (x0, v.read(tx), v.chain_len())
        });
        assert_eq!(x0, 0, "snapshot saw a post-snapshot commit");
        assert_eq!(
            x1, 0,
            "snapshot read was not stable under concurrent commits"
        );
        assert!(
            (1..=8).contains(&pinned_chain),
            "chain under a pin should be non-empty and bounded, got {pinned_chain}"
        );
    });

    // Pin dropped: the next commit finds no pinned reader and clears the
    // retained history outright.
    atomic(|tx| {
        let x = v.read(tx);
        v.write(tx, x + 1);
    });
    assert!(
        v.chain_len() <= 1,
        "chain not reclaimed after the last pin dropped: {}",
        v.chain_len()
    );

    let d = global_stats().diff(&before);
    assert_eq!(
        d.snapshot_fallbacks, 0,
        "stable snapshot must not fall back"
    );
    assert_eq!(d.aborts(), 0, "nothing in this test may abort");
    assert!(d.snapshot_reads >= 2, "snapshot reads not counted");
    assert!(
        d.chain_entries_reclaimed > 0,
        "reclamation not counted: {:?}",
        d
    );
}

/// Truncation regression: a snapshot that outlives the bounded per-var
/// history does NOT read a wrong value — it abandons to the validated
/// path (re-running the body as an ordinary transaction) and the event is
/// counted in `snapshot_fallbacks`, not silent and not an abort.
#[test]
fn chain_truncation_falls_back_to_validated_path() {
    let _g = STATS_GATE.lock().unwrap();
    let before = global_stats();
    let b = Arc::new(TVar::new(0u64));
    let go = Arc::new(AtomicBool::new(false));
    let done = Arc::new(AtomicBool::new(false));
    let runs = AtomicUsize::new(0);
    const COMMITS: u64 = 32;

    let got = std::thread::scope(|s| {
        {
            let (b, go, done) = (b.clone(), go.clone(), done.clone());
            s.spawn(move || {
                spin_until(&go);
                // Far past MAX_CHAIN_DEPTH: the entry at the reader's
                // snapshot version is guaranteed to have been dropped.
                for _ in 0..COMMITS {
                    atomic(|tx| {
                        let x = b.read(tx);
                        b.write(tx, x + 1);
                    });
                }
                done.store(true, Ordering::Release);
            });
        }
        atomic_read(|tx| {
            if runs.fetch_add(1, Ordering::AcqRel) == 0 {
                go.store(true, Ordering::Release);
                spin_until(&done);
                assert!(
                    b.chain_len() <= 8,
                    "chain depth bound violated: {}",
                    b.chain_len()
                );
            }
            b.read(tx)
        })
    });

    assert_eq!(
        runs.load(Ordering::Relaxed),
        2,
        "truncated snapshot must re-run exactly once on the validated path"
    );
    assert_eq!(got, COMMITS, "validated re-run returned a stale value");
    let d = global_stats().diff(&before);
    assert_eq!(
        d.snapshot_fallbacks, 1,
        "fallback must be counted exactly once"
    );
    assert_eq!(d.aborts(), 0, "a fallback is not an abort");
}

/// Snapshot transactions never abort and never doom the writers they run
/// against: a write-heavy storm with concurrent snapshot sums completes
/// with zero aborts on either side.
#[test]
fn snapshot_readers_never_abort_and_never_doom_writers() {
    let _g = STATS_GATE.lock().unwrap();
    let before = global_stats();
    const VARS: usize = 4;
    let vars: Arc<Vec<TVar<i64>>> = Arc::new((0..VARS).map(|_| TVar::new(0)).collect());
    std::thread::scope(|s| {
        // Single writer: no writer/writer conflicts, so *any* abort in the
        // stats delta would have to come from a snapshot reader.
        {
            let vars = vars.clone();
            s.spawn(move || {
                for i in 0..500i64 {
                    atomic(|tx| {
                        // Zero-sum transfer keeps the invariant checkable.
                        let a = vars[(i as usize) % VARS].read(tx);
                        let b = vars[(i as usize + 1) % VARS].read(tx);
                        vars[(i as usize) % VARS].write(tx, a - i);
                        vars[(i as usize + 1) % VARS].write(tx, b + i);
                    });
                }
            });
        }
        for _ in 0..2 {
            let vars = vars.clone();
            s.spawn(move || {
                for _ in 0..300 {
                    let sum: i64 = atomic_read(|tx| vars.iter().map(|v| v.read(tx)).sum());
                    assert_eq!(sum, 0, "snapshot observed a torn (non-atomic) state");
                }
            });
        }
    });
    let d = global_stats().diff(&before);
    // Served snapshots are abort-free by construction. The one designed
    // escape hatch — a reader preempted long enough for the writer to push
    // a var's chain past the depth bound — re-runs the body on the
    // *validated* path, and that ordinary read-only transaction can be
    // retried on conflict like any other. So an abort in the delta is
    // legitimate only when a counted fallback explains it; with zero
    // fallbacks (the overwhelmingly common schedule) zero aborts is exact.
    assert!(
        d.snapshot_fallbacks <= 8,
        "fallbacks must be rare depth-bound events: {d:?}"
    );
    if d.snapshot_fallbacks == 0 {
        assert_eq!(
            d.aborts(),
            0,
            "snapshot read mode must be abort-free: {:?}",
            d
        );
    }
    // Exact read accounting: each of the 600 reader runs either completes
    // as a snapshot and serves exactly VARS chain reads, or falls back after
    // serving fewer (the read that found its version truncated is not
    // served, and the validated re-run serves none).
    let (runs, vars) = (600, VARS as u64);
    assert!(
        (runs - d.snapshot_fallbacks) * vars <= d.snapshot_reads && d.snapshot_reads <= runs * vars,
        "snapshot read accounting off: {d:?}"
    );
}

/// Nesting operations on a snapshot transaction flatten: `closed`, `open`,
/// and `open_read` all run inline against the same snapshot instead of
/// opening a child frame, so collection internals built on them work
/// unchanged under `atomic_read`.
#[test]
fn snapshot_nesting_flattens() {
    let _g = STATS_GATE.lock().unwrap();
    let v = TVar::new(7u32);
    let reads = atomic_read(|tx| {
        [
            v.read(tx),
            tx.closed(|tx2| v.read(tx2)),
            tx.open(|otx| v.read(otx)),
            tx.open_read(|otx| v.read(otx)),
        ]
    });
    assert_eq!(reads, [7; 4]);
}

/// Writing inside `atomic_read` is a programming error: the transaction
/// is torn down cleanly (no buffered state leaks) and the call panics
/// with a diagnostic rather than silently dropping the write.
#[test]
fn write_inside_snapshot_panics_cleanly() {
    // The misuse teardown records an explicit abort; keep it out of the
    // gated tests' abort deltas.
    let _g = STATS_GATE.lock().unwrap();
    let v = Arc::new(TVar::new(1u32));
    let v2 = v.clone();
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        atomic_read(|tx| v2.write(tx, 99));
    }));
    assert!(r.is_err(), "snapshot write must not be accepted");
    assert_eq!(v.read_committed(), 1, "rejected write leaked");
}

/// Precompute the committed state after each writer generation, then let
/// snapshot readers race the writer: every observation must equal the
/// *exact* precomputed state for the generation it saw — mixes of two
/// generations (torn snapshots) match no row.
fn run_generation_race(batches: &[Vec<(usize, i64)>]) -> Result<(), TestCaseError> {
    // Observers may legitimately fall back (depth-bound outrun) and retry
    // validated; hold the stats gate so those events never leak into a
    // concurrently running test's exact-delta assertions.
    let _g = STATS_GATE.lock().unwrap();
    const VARS: usize = 4;
    // expected[g] = full state after generation g (generation 0 = initial).
    let mut expected: Vec<[i64; VARS]> = vec![[0; VARS]];
    for batch in batches {
        let mut next = *expected.last().unwrap();
        for (i, v) in batch {
            next[*i] = *v;
        }
        expected.push(next);
    }
    let gen: Arc<TVar<usize>> = Arc::new(TVar::new(0));
    let vars: Arc<Vec<TVar<i64>>> = Arc::new((0..VARS).map(|_| TVar::new(0)).collect());
    let failed = Arc::new(AtomicBool::new(false));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        {
            let (gen, vars, batches) = (gen.clone(), vars.clone(), batches.to_vec());
            let stop = stop.clone();
            s.spawn(move || {
                for (g, batch) in batches.iter().enumerate() {
                    atomic(|tx| {
                        for (i, v) in batch {
                            vars[*i].write(tx, *v);
                        }
                        gen.write(tx, g + 1);
                    });
                }
                stop.store(true, Ordering::Release);
            });
        }
        for _ in 0..2 {
            let (gen, vars, expected) = (gen.clone(), vars.clone(), expected.clone());
            let (stop, failed) = (stop.clone(), failed.clone());
            s.spawn(move || loop {
                let done = stop.load(Ordering::Acquire);
                let (g, state) = atomic_read(|tx| {
                    let g = gen.read(tx);
                    let mut state = [0i64; VARS];
                    for (slot, var) in state.iter_mut().zip(vars.iter()) {
                        *slot = var.read(tx);
                    }
                    (g, state)
                });
                if state != expected[g] {
                    failed.store(true, Ordering::Release);
                    return;
                }
                if done {
                    return;
                }
            });
        }
    });
    prop_assert!(
        !failed.load(Ordering::Acquire),
        "a snapshot observed a state matching no committed generation"
    );
    let g = atomic_read(|tx| gen.read(tx));
    prop_assert_eq!(g, batches.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Writers interleaved with pinned snapshot readers: every reader
    /// observes exactly the committed state at its snapshot version.
    #[test]
    fn snapshot_readers_observe_exact_generation_states(
        batches in prop::collection::vec(
            prop::collection::vec((0..4usize, -50i64..50), 1..4),
            1..16,
        )
    ) {
        run_generation_race(&batches)?;
    }
}
