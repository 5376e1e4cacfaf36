//! Integration tests for the dimensional metrics layer: shard merging,
//! window differencing under concurrent recording, percentile goldens, the
//! flight recorder, and allocation-free emission.
//!
//! Metrics state is process-global (per-thread slab shards plus a shared
//! registry), so the tests serialize on a file-local mutex. Each
//! integration-test file is its own process, so this suffices.

use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use stm::metrics::{
    self, bucket_upper, HistKind, Histogram, MetricKind, MetricsConfig, STRIPE_GLOBAL,
};
use stm::trace::{intern, LockKind, Sym};
use stm::{atomic, TVar};

static SERIAL: Mutex<()> = Mutex::new(());

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

fn serialize() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Build a [`Histogram`] the same way a shard does, without going through
/// the global registry — the reference model for the proptests.
fn model_histogram(values: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &v in values {
        let b = 63 - v.max(1).leading_zeros() as usize;
        h.buckets[b] += 1;
        h.sum += v;
        h.max = h.max.max(v);
    }
    h
}

proptest! {
    // Each case spawns real threads, each claiming a shard from the
    // process-global registry; an exited thread's shard is parked and
    // reused by a later case's thread, so the registry stays at the peak
    // thread count. Every case still spawns threads — keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Values recorded from several threads (one real shard each) merge
    /// into a window histogram that preserves the total count and sum,
    /// matches the single-shard reference model bucket-for-bucket, and
    /// keeps every value within its bucket's bounds.
    #[test]
    fn merged_shards_preserve_count_and_bucket_placement(
        chunks in prop::collection::vec(
            prop::collection::vec(0u64..1 << 48, 0..40), 1..5)
    ) {
        let _g = serialize();
        let guard = MetricsConfig::default().enable();

        std::thread::scope(|s| {
            for chunk in &chunks {
                s.spawn(move || {
                    for &v in chunk {
                        metrics::hist_record_ns(HistKind::SnapshotRead, v);
                    }
                });
            }
        });

        let all: Vec<u64> = chunks.iter().flatten().copied().collect();
        let expect = model_histogram(&all);
        let w = metrics::window();
        let got = w.histogram(HistKind::SnapshotRead);

        prop_assert_eq!(got.count(), all.len() as u64);
        prop_assert_eq!(got.sum, expect.sum);
        prop_assert_eq!(got.max, expect.max);
        prop_assert_eq!(&got.buckets, &expect.buckets);

        // Bucket bounds: every value lands in a bucket whose upper bound
        // covers it and whose predecessor's does not.
        for &v in &all {
            let b = 63 - v.max(1).leading_zeros() as usize;
            prop_assert!(bucket_upper(b) >= v.max(1));
            if b > 0 {
                prop_assert!(bucket_upper(b - 1) < v.max(1));
            }
        }
        drop(guard);
    }

    /// `Histogram::merge` is count/sum-additive and its cumulative bucket
    /// counts are monotone (the property the Prometheus `le` exposition
    /// depends on).
    #[test]
    fn histogram_merge_is_additive_and_cumulative_monotone(
        a in prop::collection::vec(0u64..1 << 50, 0..60),
        b in prop::collection::vec(0u64..1 << 50, 0..60),
    ) {
        let ha = model_histogram(&a);
        let hb = model_histogram(&b);
        let mut merged = ha;
        merged.merge(&hb);

        prop_assert_eq!(merged.count(), ha.count() + hb.count());
        prop_assert_eq!(merged.sum, ha.sum + hb.sum);
        prop_assert_eq!(merged.max, ha.max.max(hb.max));

        let mut cumulative = 0u64;
        for (i, &n) in merged.buckets.iter().enumerate() {
            let next = cumulative + n;
            prop_assert!(next >= cumulative, "cumulative count shrank at bucket {}", i);
            cumulative = next;
        }
        prop_assert_eq!(cumulative, merged.count());
    }

    /// A window diff across concurrent per-thread recording equals the sum
    /// of what each thread recorded — no lost or double-counted deltas.
    #[test]
    fn window_diff_equals_sum_of_per_thread_deltas(
        per_thread in prop::collection::vec(1u64..200, 1..5)
    ) {
        let _g = serialize();
        let guard = MetricsConfig::default().enable();
        let class = intern("metrics-test-class");

        let before = metrics::window();
        std::thread::scope(|s| {
            for (t, &n) in per_thread.iter().enumerate() {
                s.spawn(move || {
                    for _ in 0..n {
                        metrics::doom_landed(class, t as u64);
                    }
                });
            }
        });
        let diff = metrics::window().diff(&before);

        for (t, &n) in per_thread.iter().enumerate() {
            prop_assert_eq!(diff.counter(class, t as u16, MetricKind::Doom), n);
        }
        prop_assert_eq!(
            diff.kind_total(MetricKind::Doom),
            per_thread.iter().sum::<u64>()
        );
        drop(guard);
    }
}

/// Deterministic percentile golden: 1..=1000 recorded through real shards
/// on several threads. Percentiles are bucket upper bounds, so the golden
/// values are exact powers-of-two bounds, independent of thread interleave.
#[test]
fn percentile_golden_through_real_shards() {
    let _g = serialize();
    let guard = MetricsConfig::default().enable();

    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.store(1, Ordering::Relaxed);
    std::thread::scope(|s| {
        for _ in 0..4 {
            s.spawn(|| loop {
                let v = NEXT.fetch_add(1, Ordering::Relaxed);
                if v > 1000 {
                    break;
                }
                metrics::hist_record_ns(HistKind::CommitLatency, v);
            });
        }
    });

    let w = metrics::window();
    let h = w.histogram(HistKind::CommitLatency);
    assert_eq!(h.count(), 1000);
    assert_eq!(h.sum, 500_500);
    assert_eq!(h.max, 1000);
    // Rank 500 falls in bucket [256, 511] (cumulative through it: 511);
    // ranks 900 and 990 fall in [512, 1023].
    assert_eq!(h.p50(), 511);
    assert_eq!(h.p90(), 1023);
    assert_eq!(h.p99(), 1023);
    drop(guard);
}

/// Real transactions feed the commit counter and the commit-latency and
/// txn-wall histograms; the diff across a quiet baseline sees exactly the
/// transactions this test ran.
#[test]
fn transactions_feed_commit_counters_and_latency() {
    let _g = serialize();
    let guard = MetricsConfig::default().enable();

    let v = TVar::new(0u64);
    let before = metrics::window();
    const TXNS: u64 = 50;
    for _ in 0..TXNS {
        atomic(|tx| {
            let cur = v.read(tx);
            v.write(tx, cur + 1);
        });
    }
    let diff = metrics::window().diff(&before);

    assert_eq!(diff.kind_total(MetricKind::Commit), TXNS);
    assert_eq!(diff.kind_total(MetricKind::AbortReadInvalid), 0);
    let lat = diff.histogram(HistKind::CommitLatency);
    assert_eq!(lat.count(), TXNS, "one commit-latency sample per commit");
    let wall = diff.histogram(HistKind::TxnWall);
    assert_eq!(wall.count(), TXNS, "one wall sample per top-level txn");
    assert!(wall.sum >= lat.sum, "wall time includes commit time");
    drop(guard);
}

/// The armed flight recorder dumps when a `(class, stripe)` crosses the
/// doom threshold in one poll window, and the dump carries the trigger
/// rows, the window, and the trace-ring doom edges that crossed it.
#[test]
fn flight_recorder_dumps_doom_spike_with_trace_edges() {
    let _g = serialize();
    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "stm-flightrec-test-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let cfg = metrics::FlightRecorderConfig {
        dir: dir.clone(),
        doom_threshold: 8,
        ring_slots: 1 << 10,
    };
    let mut rec = metrics::FlightRecorder::arm(cfg).expect("arm creates the dump dir");

    // Quiet window: no dump.
    assert_eq!(rec.poll().expect("poll"), None);

    // Doom spike on one class/stripe, with matching trace provenance.
    let class = intern("flightrec-map");
    for i in 0..16u64 {
        metrics::doom_landed(class, 3);
        stm::trace::doom_edge(
            1000 + i,
            2000 + i,
            class,
            LockKind::Key,
            0xBEEF,
            0,
            1,
            false,
        );
    }
    let path = rec
        .poll()
        .expect("poll")
        .expect("threshold crossed, dump expected");
    let dump = std::fs::read_to_string(&path).expect("dump readable");
    assert!(dump.contains("\"triggers\""), "dump carries trigger rows");
    assert!(
        dump.contains("flightrec-map"),
        "trigger names the offending class"
    );
    assert!(
        dump.contains("doom_edge"),
        "trace snapshot in the dump holds the doom edges that crossed the threshold"
    );
    assert!(dump.contains("\"window\""));

    // The spike was consumed by that window; the next poll is quiet again.
    assert_eq!(rec.poll().expect("poll"), None);

    drop(rec);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two cumulative Prometheus scrapes with activity between are monotone
/// per-series and structurally well-formed — the property `txtop --metrics
/// --validate` checks end to end.
#[test]
fn prometheus_scrapes_are_monotone_and_parseable() {
    let _g = serialize();
    let guard = MetricsConfig::default().enable();
    let class = intern("prom-test-class");

    metrics::doom_landed(class, 1);
    metrics::hist_record_ns(HistKind::SemLockWait, 640);
    let scrape1 = metrics::window();
    metrics::doom_landed(class, 1);
    metrics::doom_landed(class, 1);
    let scrape2 = metrics::window();

    let c1 = scrape1.counter(class, 1, MetricKind::Doom);
    let c2 = scrape2.counter(class, 1, MetricKind::Doom);
    assert!(c2 >= c1, "cumulative windows are monotone");
    assert_eq!(c2 - c1, 2);

    let text = scrape2.to_prometheus();
    for line in text.lines() {
        assert!(
            line.starts_with('#') || line.contains(' '),
            "sample lines are `name value`: {line:?}"
        );
    }
    assert!(text.contains("# TYPE stm_events_total counter"));
    assert!(text.contains("kind=\"doom\""));
    assert!(text.contains("stm_sem_lock_wait_ns_bucket"));
    assert!(text.contains("le=\"+Inf\""));
    drop(guard);
}

/// `stripe_dim` folds the raw u64 stripe into the label dimension: the
/// global-stripe sentinel and in-range stripes round-trip, oversize clamps.
#[test]
fn stripe_dimension_folding() {
    assert_eq!(metrics::stripe_dim(u64::MAX), STRIPE_GLOBAL);
    assert_eq!(metrics::stripe_dim(0), 0);
    assert_eq!(metrics::stripe_dim(15), 15);
    assert_eq!(metrics::stripe_dim(1 << 20), metrics::STRIPE_MAX);
    assert_eq!(metrics::stripe_label(STRIPE_GLOBAL), "global");
    assert_eq!(metrics::stripe_label(7), "7");
}

/// Sym values survive the packed-key round trip through a real window.
#[test]
fn window_counters_key_on_class_and_stripe() {
    let _g = serialize();
    let guard = MetricsConfig::default().enable();
    let a = intern("wc-class-a");
    let b = intern("wc-class-b");

    let before = metrics::window();
    metrics::doom_landed(a, 0);
    metrics::doom_landed(b, 0);
    metrics::doom_landed(b, u64::MAX);
    metrics::stripe_blocked(b, 5);
    let diff = metrics::window().diff(&before);

    assert_eq!(diff.counter(a, 0, MetricKind::Doom), 1);
    assert_eq!(diff.counter(b, 0, MetricKind::Doom), 1);
    assert_eq!(diff.counter(b, STRIPE_GLOBAL, MetricKind::Doom), 1);
    assert_eq!(diff.counter(b, 5, MetricKind::StripeBlocked), 1);
    assert_eq!(diff.counter(a, 5, MetricKind::StripeBlocked), 0);

    let mut classes: Vec<Sym> = diff
        .by_class_stripe(MetricKind::Doom)
        .into_iter()
        .map(|(c, _, _)| c)
        .collect();
    classes.sort_by_key(|c| c.0);
    classes.dedup();
    assert_eq!(classes, vec![a, b]);
    drop(guard);
}

/// Emission allocates nothing once a thread's shard exists: a warm loop
/// over every public counter emitter and both histogram entry points, with
/// metrics enabled, makes zero allocations on this thread. Counters are
/// open-addressed slab increments and histograms are fixed arrays (the
/// rule txlint TX014 enforces lexically).
#[test]
fn enabled_emission_allocates_nothing() {
    const ITERS: u64 = 10_000;
    let _g = serialize();
    let guard = MetricsConfig::default().enable();
    // Interning allocates (once per class), and a thread's first emission
    // claims its shard: both happen before counting starts.
    let class = intern("alloc-probe");
    metrics::doom_landed(class, 1);
    metrics::hist_record_ns(HistKind::CommitLatency, 1);

    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    for i in 0..ITERS {
        metrics::doom_landed(class, i % 16);
        metrics::stripe_blocked(class, i % 16);
        metrics::cache_hit(class);
        metrics::hist_record_ns(HistKind::CommitLatency, i);
        metrics::hist_elapsed(HistKind::SnapshotRead, metrics::timer());
    }
    COUNTING.with(|on| on.set(false));
    assert_eq!(
        ALLOCS.with(Cell::get),
        0,
        "allocations in {ITERS} warm emissions"
    );
    drop(guard);
}
