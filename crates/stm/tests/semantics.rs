//! Behavioral tests for the transactional semantics the paper's collection
//! classes depend on (paper §4): isolation, nesting, handlers, and
//! program-directed abort.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use stm::{
    atomic, atomic_read, atomic_with, AbortCause, BackoffPolicy, Participant, RunOpts, TVar,
    TxHandle, TxState, Txn,
};

/// Held by every test here that runs an open-nested child or a handler, and
/// by the tests that assert a window of the process-wide counters: without
/// it, a sibling test's open commit, lane entry or handler run lands in
/// that window.
static LANE: Mutex<()> = Mutex::new(());

fn exclusive_lane() -> std::sync::MutexGuard<'static, ()> {
    LANE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn read_your_own_writes() {
    let v = TVar::new(1);
    let seen = atomic(|tx| {
        v.write(tx, 5);
        v.read(tx)
    });
    assert_eq!(seen, 5);
    assert_eq!(v.read_committed(), 5);
}

#[test]
fn writes_are_buffered_until_commit() {
    let v = TVar::new(0);
    let observed = Arc::new(AtomicU32::new(u32::MAX));
    let obs = observed.clone();
    let v2 = v.clone();
    atomic(|tx| {
        v.write(tx, 42);
        // Committed state is unchanged while the transaction is live.
        // txlint: allow(TX002) — the test asserts write buffering by peeking
        obs.store(v2.read_committed(), Ordering::SeqCst);
    });
    assert_eq!(observed.load(Ordering::SeqCst), 0);
    assert_eq!(v.read_committed(), 42);
}

#[test]
fn multi_var_consistency_under_concurrency() {
    // Classic invariant test: two vars always sum to 100.
    let a = Arc::new(TVar::new(50i64));
    let b = Arc::new(TVar::new(50i64));
    let iters = 2000;
    std::thread::scope(|s| {
        for t in 0..4 {
            let a = a.clone();
            let b = b.clone();
            s.spawn(move || {
                for i in 0..iters {
                    let delta = ((t * iters + i) % 7) as i64 - 3;
                    atomic(|tx| {
                        let x = a.read(tx);
                        let y = b.read(tx);
                        assert_eq!(x + y, 100, "isolation broken inside txn");
                        a.write(tx, x - delta);
                        b.write(tx, y + delta);
                    });
                }
            });
        }
    });
    assert_eq!(a.read_committed() + b.read_committed(), 100);
}

#[test]
fn increments_are_not_lost() {
    let c = Arc::new(TVar::new(0u64));
    let threads = 8;
    let per = 500;
    std::thread::scope(|s| {
        for _ in 0..threads {
            let c = c.clone();
            s.spawn(move || {
                for _ in 0..per {
                    atomic(|tx| {
                        let v = c.read(tx);
                        c.write(tx, v + 1);
                    });
                }
            });
        }
    });
    assert_eq!(c.read_committed(), threads * per);
}

#[test]
fn closed_nested_commit_merges_into_parent() {
    let v = TVar::new(0);
    let w = TVar::new(0);
    atomic(|tx| {
        v.write(tx, 1);
        tx.closed(|tx| {
            assert_eq!(v.read(tx), 1, "child sees parent's buffered write");
            w.write(tx, 2);
        });
        assert_eq!(w.read(tx), 2, "parent sees committed child's write");
    });
    assert_eq!(v.read_committed(), 1);
    assert_eq!(w.read_committed(), 2);
}

#[test]
fn open_nested_commits_immediately() {
    let _lane = exclusive_lane();
    let shared = Arc::new(TVar::new(0u32));
    let mid_view = Arc::new(AtomicU32::new(u32::MAX));
    let s2 = shared.clone();
    let mv = mid_view.clone();
    atomic(|tx| {
        tx.open(|otx| {
            let v = s2.read(otx);
            s2.write(otx, v + 1);
        });
        // The open child has committed: other threads (here: a committed
        // read) can see it although the parent is still running.
        // txlint: allow(TX002) — asserting open-nested early publication
        mv.store(s2.read_committed(), Ordering::SeqCst);
    });
    assert_eq!(mid_view.load(Ordering::SeqCst), 1);
}

#[test]
fn open_nested_leaves_no_parent_dependencies() {
    let _lane = exclusive_lane();
    let noise = Arc::new(TVar::new(0u64));
    let target = Arc::new(TVar::new(0u64));
    let attempts = Arc::new(AtomicU32::new(0));

    // Writer thread hammers `noise` which the victim reads ONLY inside an
    // open-nested child. The victim must not abort because of it.
    let stop = Arc::new(AtomicU32::new(0));
    let n2 = noise.clone();
    let stop2 = stop.clone();
    let writer = std::thread::spawn(move || {
        while stop2.load(Ordering::SeqCst) == 0 {
            atomic(|tx| {
                let v = n2.read(tx);
                n2.write(tx, v + 1);
            });
        }
    });

    let at = attempts.clone();
    atomic(|tx| {
        at.fetch_add(1, Ordering::SeqCst);
        let _ = tx.open(|otx| noise.read(otx));
        // Long "computation" during which noise changes many times.
        std::thread::sleep(std::time::Duration::from_millis(30)); // txlint: allow(TX001)
        let t = target.read(tx);
        target.write(tx, t + 1);
    });
    stop.store(1, Ordering::SeqCst);
    writer.join().unwrap();
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        1,
        "open-nested read must not create a parent dependency"
    );
}

#[test]
fn open_read_leaves_no_parent_dependencies() {
    let _lane = exclusive_lane();
    // Same experiment as above with the flattened read: the per-var stamp
    // validation happens inside `open_read` and is then forgotten — the
    // noise var never enters the parent's read set.
    let noise = Arc::new(TVar::new(0u64));
    let target = Arc::new(TVar::new(0u64));
    let attempts = Arc::new(AtomicU32::new(0));

    let stop = Arc::new(AtomicU32::new(0));
    let n2 = noise.clone();
    let stop2 = stop.clone();
    let writer = std::thread::spawn(move || {
        while stop2.load(Ordering::SeqCst) == 0 {
            atomic(|tx| {
                let v = n2.read(tx);
                n2.write(tx, v + 1);
            });
        }
    });

    let before = stm::global_stats();
    let at = attempts.clone();
    atomic(|tx| {
        at.fetch_add(1, Ordering::SeqCst);
        let _ = tx.open_read(|otx| noise.read(otx));
        std::thread::sleep(std::time::Duration::from_millis(30)); // txlint: allow(TX001)
        let t = target.read(tx);
        target.write(tx, t + 1);
    });
    stop.store(1, Ordering::SeqCst);
    writer.join().unwrap();
    assert_eq!(
        attempts.load(Ordering::SeqCst),
        1,
        "flattened read must not create a parent dependency"
    );
    let d = stm::global_stats().diff(&before);
    assert_eq!(d.open_commits, 0, "no child transaction may be spawned");
    assert!(d.open_flattened >= 1, "the flattened read must be counted");
}

#[test]
#[should_panic(expected = "write inside an open_read body")]
fn open_read_rejects_writes() {
    let v = Arc::new(TVar::new(0u32));
    atomic(|tx| {
        tx.open_read(|otx| v.write(otx, 1));
    });
}

#[test]
fn plain_read_of_contended_var_does_abort() {
    // Control experiment for the previous test: the same long transaction
    // reading `noise` directly IS expected to abort at commit.
    let noise = Arc::new(TVar::new(0u64));
    let attempts = Arc::new(AtomicU32::new(0));
    let stop = Arc::new(AtomicU32::new(0));
    let n2 = noise.clone();
    let stop2 = stop.clone();
    let at_w = attempts.clone();
    let writer = std::thread::spawn(move || {
        // Stop once the victim has aborted at least once: a writer that
        // commits forever livelocks the victim on a single-CPU host (it can
        // never find a quiet 10ms window to commit in).
        while stop2.load(Ordering::SeqCst) == 0 && at_w.load(Ordering::SeqCst) < 2 {
            atomic(|tx| {
                let v = n2.read(tx);
                n2.write(tx, v + 1);
            });
            std::thread::yield_now();
        }
    });

    let at = attempts.clone();
    atomic(|tx| {
        at.fetch_add(1, Ordering::SeqCst);
        let _ = noise.read(tx);
        std::thread::sleep(std::time::Duration::from_millis(10)); // txlint: allow(TX001)
                                                                  // Force a validation by reading after the sleep: any noise commit in
                                                                  // between invalidates us.
        let _ = noise.read(tx);
    });
    stop.store(1, Ordering::SeqCst);
    writer.join().unwrap();
    assert!(
        attempts.load(Ordering::SeqCst) > 1,
        "direct read of a contended var should have aborted at least once"
    );
}

#[test]
fn commit_handlers_run_on_commit_only() {
    let _lane = exclusive_lane();
    let ran = Arc::new(AtomicU32::new(0));
    let r2 = ran.clone();
    atomic(move |tx| {
        let r = r2.clone();
        // txlint: allow(TX004) — this test isolates the commit-side handler
        tx.on_commit_top(move |_| {
            r.fetch_add(1, Ordering::SeqCst);
        });
    });
    assert_eq!(ran.load(Ordering::SeqCst), 1);
}

#[test]
fn abort_handlers_run_per_aborted_attempt() {
    let _lane = exclusive_lane();
    let aborts = Arc::new(AtomicU32::new(0));
    let commits = Arc::new(AtomicU32::new(0));
    let first = Arc::new(AtomicU32::new(1));
    let (a2, c2, f2) = (aborts.clone(), commits.clone(), first.clone());
    atomic(move |tx| {
        let a = a2.clone();
        let c = c2.clone();
        tx.on_abort_top(move |_| {
            a.fetch_add(1, Ordering::SeqCst);
        });
        tx.on_commit_top(move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        if f2.swap(0, Ordering::SeqCst) == 1 {
            stm::abort_and_retry();
        }
    });
    assert_eq!(aborts.load(Ordering::SeqCst), 1);
    assert_eq!(commits.load(Ordering::SeqCst), 1);
}

#[test]
fn handlers_registered_in_aborted_closed_frame_are_discarded() {
    let _lane = exclusive_lane();
    let commit_runs = Arc::new(AtomicU32::new(0));
    let undo_runs = Arc::new(AtomicU32::new(0));
    let v = Arc::new(TVar::new(0u32));

    // Drive a closed-frame abort deterministically: the frame reads `v`,
    // then a helper thread commits a write to `v`, then the frame reads `v`
    // again -> repeated-read conflict confined to the frame -> frame retry.
    let (c2, u2, v2) = (commit_runs.clone(), undo_runs.clone(), v.clone());
    let round = Arc::new(AtomicU32::new(0));
    let r2 = round.clone();
    atomic(move |tx| {
        let c3 = c2.clone();
        let u3 = u2.clone();
        let v3 = v2.clone();
        let r3 = r2.clone();
        tx.closed(move |tx| {
            let attempt = r3.fetch_add(1, Ordering::SeqCst);
            let c4 = c3.clone();
            tx.on_commit(move |_| {
                c4.fetch_add(1, Ordering::SeqCst);
            });
            let u4 = u3.clone();
            tx.on_local_undo(move |_| {
                u4.fetch_add(1, Ordering::SeqCst);
            });
            let _ = v3.read(tx);
            if attempt == 0 {
                // Invalidate our own read from another thread.
                let vv = v3.clone();
                std::thread::spawn(move || {
                    atomic(|tx| {
                        let x = vv.read(tx);
                        vv.write(tx, x + 1);
                    });
                })
                .join()
                .unwrap();
                // Re-read: version changed -> frame retry.
                let _ = v3.read(tx);
            }
        });
    });
    assert_eq!(round.load(Ordering::SeqCst), 2, "frame must have retried");
    assert_eq!(
        undo_runs.load(Ordering::SeqCst),
        1,
        "local undo of the aborted frame attempt must run"
    );
    assert_eq!(
        commit_runs.load(Ordering::SeqCst),
        1,
        "only the committed frame attempt's handler survives"
    );
}

#[test]
fn doomed_transaction_aborts_and_retries() {
    let v = Arc::new(TVar::new(0u32));
    let handle_slot: Arc<Mutex<Option<Arc<TxHandle>>>> = Arc::new(Mutex::new(None));
    let attempts = Arc::new(AtomicU32::new(0));

    let (hs, at, v2) = (handle_slot.clone(), attempts.clone(), v.clone());
    atomic(move |tx| {
        let n = at.fetch_add(1, Ordering::SeqCst);
        // txlint: allow(TX001) — exporting the handle to the adversary is the test
        *hs.lock().unwrap() = Some(tx.handle().clone());
        if n == 0 {
            // Doom ourselves "remotely" (as a committing adversary would).
            let landed = tx.handle().doom();
            assert!(landed, "self-doom of an active transaction must land");
        }
        let x = v2.read(tx); // doom is noticed at the next read or commit
        v2.write(tx, x + 1);
    });
    assert_eq!(attempts.load(Ordering::SeqCst), 2);
    assert_eq!(v.read_committed(), 1);
    let h = handle_slot.lock().unwrap().clone().unwrap();
    assert_eq!(h.state(), TxState::Committed);
}

#[test]
fn dooming_committed_transaction_is_noop() {
    let h = TxHandle::new(0);
    let v = TVar::new(0u8);
    atomic(|tx| v.write(tx, 1));
    // Simulate: handle committed elsewhere.
    let committed = { h.clone() };
    // Fresh handle is Active; force to committed via a real transaction is
    // not exposed, so just check the Active->doom path and the API contract.
    assert!(committed.doom());
    assert!(committed.is_doomed());
}

#[test]
fn user_abort_panics_after_cleanup() {
    let _lane = exclusive_lane();
    let undone = Arc::new(AtomicU32::new(0));
    let u2 = undone.clone();
    let result = std::panic::catch_unwind(move || {
        atomic(move |tx| {
            let u3 = u2.clone();
            tx.on_abort_top(move |_| {
                u3.fetch_add(1, Ordering::SeqCst);
            });
            stm::user_abort();
        })
    });
    assert!(result.is_err());
    assert_eq!(undone.load(Ordering::SeqCst), 1);
}

#[test]
fn user_panic_runs_abort_handlers_then_propagates() {
    let _lane = exclusive_lane();
    let undone = Arc::new(AtomicU32::new(0));
    let u2 = undone.clone();
    let result = std::panic::catch_unwind(move || {
        atomic(move |tx| {
            let u3 = u2.clone();
            tx.on_abort_top(move |_| {
                u3.fetch_add(1, Ordering::SeqCst);
            });
            panic!("application bug");
        })
    });
    assert!(result.is_err());
    assert_eq!(undone.load(Ordering::SeqCst), 1);
}

#[test]
fn explicit_retry_reexecutes_body() {
    let tries = Arc::new(AtomicU32::new(0));
    let t2 = tries.clone();
    let out = atomic_with(
        RunOpts {
            backoff: BackoffPolicy::None,
            max_attempts: Some(10),
        },
        move |_tx| {
            if t2.fetch_add(1, Ordering::SeqCst) < 3 {
                stm::abort_and_retry();
            }
            "done"
        },
    );
    assert_eq!(out, "done");
    assert_eq!(tries.load(Ordering::SeqCst), 4);
}

#[test]
fn open_nested_effects_survive_parent_abort_unless_compensated() {
    let _lane = exclusive_lane();
    // UID-generator semantics: the open increment persists even though the
    // first parent attempt aborts (gaps are allowed, paper §6.3).
    let uid = Arc::new(TVar::new(0u64));
    let first = Arc::new(AtomicU32::new(1));
    let (u2, f2) = (uid.clone(), first.clone());
    atomic(move |tx| {
        let u3 = u2.clone();
        tx.open(move |otx| {
            let v = u3.read(otx);
            u3.write(otx, v + 1);
        });
        if f2.swap(0, Ordering::SeqCst) == 1 {
            stm::abort_and_retry();
        }
    });
    assert_eq!(
        uid.read_committed(),
        2,
        "both attempts' open increments persist"
    );
}

#[test]
fn open_nested_with_compensation_rolls_back_on_abort() {
    let _lane = exclusive_lane();
    // The compensating pattern the collection classes use: the abort handler
    // undoes the open child's published effect.
    let counter = Arc::new(TVar::new(0i64));
    let first = Arc::new(AtomicU32::new(1));
    let (c2, f2) = (counter.clone(), first.clone());
    atomic(move |tx| {
        let c3 = c2.clone();
        tx.open(move |otx| {
            let v = c3.read(otx);
            c3.write(otx, v + 1);
        });
        let c4 = c2.clone();
        tx.on_abort(move |htx| {
            let v = c4.read(htx);
            c4.write(htx, v - 1);
        });
        if f2.swap(0, Ordering::SeqCst) == 1 {
            stm::abort_and_retry();
        }
    });
    assert_eq!(
        counter.read_committed(),
        1,
        "aborted attempt compensated; committed attempt persists"
    );
}

#[test]
fn commit_handler_direct_writes_are_visible() {
    let _lane = exclusive_lane();
    let v = Arc::new(TVar::new(0u32));
    let v2 = v.clone();
    atomic(move |tx| {
        let v3 = v2.clone();
        // txlint: allow(TX004) — commit-side handler writes are the subject
        tx.on_commit_top(move |htx| {
            let x = v3.read(htx);
            v3.write(htx, x + 10);
        });
        v2.write(tx, 5);
    });
    // Memory commit (5) happens before the handler (+10).
    assert_eq!(v.read_committed(), 15);
}

/// A participant that logs `name:outcome:left` when it runs, where `left`
/// says whether any recorder (tag 1 or 2) is still in the transaction.
struct Recorder {
    name: &'static str,
    log: Arc<Mutex<Vec<String>>>,
}

impl Recorder {
    fn boxed(name: &'static str, log: &Arc<Mutex<Vec<String>>>) -> Box<Recorder> {
        Box::new(Recorder {
            name,
            log: log.clone(),
        })
    }

    fn left_in(htx: &mut Txn) -> bool {
        [1, 2]
            .into_iter()
            .any(|tag| htx.participant::<Recorder>(tag).is_some())
    }

    fn record(log: &Mutex<Vec<String>>, name: &str, outcome: &str, htx: &mut Txn) {
        let left = Recorder::left_in(htx);
        log.lock().unwrap().push(format!("{name}:{outcome}:{left}"));
    }
}

impl Participant for Recorder {
    fn commit(self: Box<Self>, htx: &mut Txn) {
        Recorder::record(&self.log, self.name, "commit", htx);
    }

    fn abort(self: Box<Self>, htx: &mut Txn) {
        Recorder::record(&self.log, self.name, "abort", htx);
    }
}

/// A closure handler that logs like a [`Recorder`] named `closure`.
fn probe_handler(
    log: Arc<Mutex<Vec<String>>>,
    outcome: &'static str,
) -> impl FnOnce(&mut Txn) + Send + 'static {
    move |htx| Recorder::record(&log, "closure", outcome, htx)
}

/// Participants run once each, in enlistment order and before the closure
/// handlers (even ones registered before them), under one lane entry; each
/// run counts as one handler run. The body reaches a participant by tag and
/// type; every participant leaves the transaction before any runs, so no
/// handler finds one.
#[test]
fn participants_run_once_in_enlistment_order_before_closure_handlers() {
    let _lane = exclusive_lane();
    for (commit, outcome) in [(true, "commit"), (false, "abort")] {
        let log = Arc::new(Mutex::new(Vec::new()));
        let before = stm::global_stats();
        let l = log.clone();
        let (_, prepared) = stm::speculate(
            move |tx| {
                tx.on_commit_top(probe_handler(l.clone(), "commit"));
                tx.on_abort_top(probe_handler(l.clone(), "abort"));
                tx.enlist(1, Recorder::boxed("p1", &l));
                tx.enlist(2, Recorder::boxed("p2", &l));
                assert_eq!(tx.participant::<Recorder>(2).map(|p| p.name), Some("p2"));
                assert!(tx.participant::<Recorder>(3).is_none(), "no such tag");
            },
            0,
        )
        .unwrap();
        if commit {
            prepared.commit();
        } else {
            prepared.abort(AbortCause::Explicit);
        }
        let d = stm::global_stats().diff(&before);
        assert_eq!(
            *log.lock().unwrap(),
            vec![
                format!("p1:{outcome}:false"),
                format!("p2:{outcome}:false"),
                format!("closure:{outcome}:false"),
            ]
        );
        assert_eq!(d.lane_entries, 1, "{outcome}");
        assert_eq!(d.handler_runs, 3, "{outcome}");
    }
}

/// The panic message `f` ends with.
fn panic_message(f: impl FnOnce()) -> String {
    let payload =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("the call must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Neither a snapshot transaction nor an open child ever runs the
/// participants it would enlist, so `enlist` there aborts as a misuse.
#[test]
fn enlist_in_a_snapshot_or_open_child_is_a_misuse_abort() {
    let _lane = exclusive_lane();
    let log = Arc::new(Mutex::new(Vec::new()));
    let msg = panic_message(|| atomic_read(|tx| tx.enlist(1, Recorder::boxed("snap", &log))));
    assert!(msg.contains("snapshot transaction"), "diagnostic: {msg}");
    let msg = panic_message(|| {
        atomic(|tx| tx.open(|otx| otx.enlist(1, Recorder::boxed("open", &log))));
    });
    assert!(msg.contains("tx.open"), "diagnostic: {msg}");
    assert!(
        log.lock().unwrap().is_empty(),
        "no rejected participant ran"
    );
}

/// A handler runs after the participants were taken, so one enlisted from
/// a handler would never run: `enlist` panics.
#[test]
fn enlist_from_a_commit_handler_panics() {
    let _lane = exclusive_lane();
    let log = Arc::new(Mutex::new(Vec::new()));
    let msg = panic_message(|| {
        atomic(|tx| {
            let l = log.clone();
            // txlint: allow(TX004) — the commit-side handler is the subject
            tx.on_commit_top(move |htx| htx.enlist(1, Recorder::boxed("late", &l)));
        })
    });
    assert!(msg.contains("Txn::enlist"), "diagnostic: {msg}");
    assert!(
        log.lock().unwrap().is_empty(),
        "the late participant never ran"
    );
}

#[test]
fn stats_count_commits_and_aborts() {
    let before = stm::global_stats();
    let v = TVar::new(0);
    let first = AtomicU32::new(1);
    atomic(|tx| {
        v.write(tx, 1);
        if first.swap(0, Ordering::SeqCst) == 1 {
            stm::abort_and_retry();
        }
    });
    let diff = stm::global_stats().diff(&before);
    assert!(diff.commits >= 1);
    assert!(diff.aborts_explicit >= 1);
}

#[test]
fn closed_nesting_depth() {
    let v = TVar::new(0);
    atomic(|tx| {
        tx.closed(|tx| {
            tx.closed(|tx| {
                tx.closed(|tx| {
                    v.write(tx, 3);
                });
            });
        });
        assert_eq!(v.read(tx), 3);
    });
    assert_eq!(v.read_committed(), 3);
}

#[test]
fn open_within_closed_promotes_handlers_to_closed_frame() {
    let _lane = exclusive_lane();
    // A handler registered via an open child inside a closed frame is
    // discarded when the closed frame aborts (the paper's discard rule).
    let handler_runs = Arc::new(AtomicU64::new(0));
    let v = Arc::new(TVar::new(0u32));
    let round = Arc::new(AtomicU32::new(0));
    let (h2, v2, r2) = (handler_runs.clone(), v.clone(), round.clone());
    atomic(move |tx| {
        let h3 = h2.clone();
        let v3 = v2.clone();
        let r3 = r2.clone();
        tx.closed(move |tx| {
            let attempt = r3.fetch_add(1, Ordering::SeqCst);
            let h4 = h3.clone();
            tx.open(move |_otx| {
                // No memory effects; just registration via parent below.
            });
            let h5 = h4.clone();
            // txlint: allow(TX004) — the handler-discard rule is the subject
            tx.on_commit(move |_| {
                h5.fetch_add(1, Ordering::SeqCst);
            });
            let _ = v3.read(tx);
            if attempt == 0 {
                let vv = v3.clone();
                std::thread::spawn(move || {
                    atomic(|tx| {
                        let x = vv.read(tx);
                        vv.write(tx, x + 1);
                    });
                })
                .join()
                .unwrap();
                let _ = v3.read(tx); // trigger frame retry
            }
        });
    });
    assert_eq!(round.load(Ordering::SeqCst), 2);
    assert_eq!(
        handler_runs.load(Ordering::SeqCst),
        1,
        "only the surviving frame attempt's handler runs"
    );
}

#[test]
fn speculate_then_commit_applies_writes() {
    let v = Arc::new(TVar::new(0u32));
    let v2 = v.clone();
    let (out, prepared) = stm::speculate(
        move |tx| {
            let x = v2.read(tx);
            v2.write(tx, x + 7);
            x
        },
        0,
    )
    .unwrap();
    assert_eq!(out, 0);
    assert_eq!(v.read_committed(), 0, "still buffered");
    assert!(!prepared.read_set().is_empty());
    assert!(!prepared.write_set().is_empty());
    prepared.commit();
    assert_eq!(v.read_committed(), 7);
}

#[test]
fn speculate_then_abort_discards_and_compensates() {
    let _lane = exclusive_lane();
    let v = Arc::new(TVar::new(0u32));
    let compensated = Arc::new(AtomicU32::new(0));
    let (v2, c2) = (v.clone(), compensated.clone());
    let (_, prepared) = stm::speculate(
        move |tx| {
            v2.write(tx, 99);
            let c3 = c2.clone();
            tx.on_abort_top(move |_| {
                c3.fetch_add(1, Ordering::SeqCst);
            });
        },
        0,
    )
    .unwrap();
    prepared.abort(AbortCause::ReadInvalid);
    assert_eq!(v.read_committed(), 0);
    assert_eq!(compensated.load(Ordering::SeqCst), 1);
}

/// The simulator commits through the runtime's own top-level commit, so a
/// speculated transaction doomed before its commit event loses the
/// doom-vs-commit race: `commit()` aborts it, publishes nothing and panics
/// with the cause.
#[test]
fn commit_of_doomed_speculation_panics_and_publishes_nothing() {
    let v = Arc::new(TVar::new(0u32));
    let v2 = v.clone();
    let (_, prepared) = stm::speculate(move |tx| v2.write(tx, 5), 0).unwrap();
    let handle = prepared.handle();
    assert!(handle.doom());
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prepared.commit()))
        .expect_err("committing a doomed speculation must panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("Doomed"), "panic names the cause: {msg:?}");
    assert_eq!(v.read_committed(), 0, "the buffered write is not published");
    assert_eq!(handle.state(), TxState::Aborted);
}
