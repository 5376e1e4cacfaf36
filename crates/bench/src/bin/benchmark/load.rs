//! What every workload shares: the round description, the closed-loop load
//! generator, before/after counter snapshots, and the metrics derived from
//! them.

use crate::measure::{self, Hist};
use crate::spans::{stride, Recorder, Span, SpanSummary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Barrier;
use std::time::Instant;
use stm::metrics::{HistKind, MetricsWindow};
use stm::StatsSnapshot;
use txcollections::SemanticStats;

/// One round of one workload, run on fresh state.
pub(crate) struct Round {
    pub(crate) seed: u64,
    pub(crate) round: u64,
    /// How long the round should measure on the reference host; each
    /// workload turns this into a fixed amount of work (see [`work`]).
    pub(crate) secs: f64,
    pub(crate) traced: bool,
    pub(crate) quick: bool,
    /// Where the traced round writes its spans (`None`: not written).
    pub(crate) span_dir: Option<PathBuf>,
}

impl Round {
    /// The seed every input of this round is generated from.
    pub(crate) fn input_seed(&self) -> u64 {
        self.seed ^ self.round
    }
}

/// What a round reports: metrics by name, the operation counts, and lines
/// of human-readable context.
#[derive(Default)]
pub(crate) struct RoundOut {
    pub(crate) metrics: BTreeMap<String, f64>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) context: Vec<String>,
}

impl RoundOut {
    pub(crate) fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Count a failed check, with the reason as context.
    pub(crate) fn fail(&mut self, count: u64, why: String) {
        if count > 0 {
            self.failed += count;
            self.context.push(format!("FAILED: {why}"));
        }
    }

    /// The end-to-end metrics every workload reports, with the timings that
    /// are context (`e2e.*` in a traced pass).
    pub(crate) fn end_to_end(
        &mut self,
        setup_s: f64,
        txns: u64,
        attempts: u64,
        elapsed: f64,
        lat: &Hist,
    ) {
        self.set("setup_s", setup_s);
        self.set("txn_per_s", txns as f64 / elapsed);
        self.set("txn_p50_us", lat.quantile_us(0.50));
        self.set("txn_p99_us", lat.quantile_us(0.99));
        self.set("attempts_per_txn", attempts as f64 / txns.max(1) as f64);
        self.set("peak_rss_mb", measure::peak_rss_mb());
        self.context.push(format!(
            "{txns} txns in {elapsed:.3} s; {}",
            describe("latency", lat)
        ));
    }
}

/// One line describing a latency sample: its size, median, tail and max.
pub(crate) fn describe(what: &str, h: &Hist) -> String {
    format!(
        "{what}: {} samples, p50 {:.3} us, p99 {:.3} us, p99.9 {:.3} us, max {:.3} us",
        h.count(),
        h.quantile_us(0.50),
        h.quantile_us(0.99),
        h.quantile_us(0.999),
        h.max_ns() as f64 / 1e3
    )
}

/// What a load thread measured.
pub(crate) struct ThreadOut {
    pub(crate) lat: Hist,
    /// Latency by the transaction kind the body reported (traced only).
    pub(crate) kinds: Vec<Hist>,
    pub(crate) txns: u64,
    pub(crate) failed: u64,
    pub(crate) spans: Vec<Span>,
    pub(crate) dropped: u64,
}

impl ThreadOut {
    pub(crate) fn new(kinds: usize) -> ThreadOut {
        ThreadOut {
            lat: Hist::new(),
            kinds: (0..kinds).map(|_| Hist::new()).collect(),
            txns: 0,
            failed: 0,
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub(crate) fn keep_spans(&mut self, rec: Option<Recorder>) {
        if let Some(rec) = rec {
            (self.spans, self.dropped) = rec.into_parts();
        }
    }
}

/// What a transaction body reports to the closed loop.
pub(crate) struct Done {
    pub(crate) kind: usize,
    pub(crate) ok: bool,
}

/// The load threads' results and the wall time they ran for.
pub(crate) struct Load {
    pub(crate) threads: Vec<ThreadOut>,
    pub(crate) elapsed: f64,
}

impl Load {
    pub(crate) fn txns(&self) -> u64 {
        self.threads.iter().map(|t| t.txns).sum()
    }

    pub(crate) fn failed(&self) -> u64 {
        self.threads.iter().map(|t| t.failed).sum()
    }

    pub(crate) fn latency(&self) -> Hist {
        let mut h = Hist::new();
        for t in &self.threads {
            h.merge(&t.lat);
        }
        h
    }

    pub(crate) fn kind_latency(&self, kind: usize) -> Hist {
        let mut h = Hist::new();
        for t in &self.threads {
            if let Some(k) = t.kinds.get(kind) {
                h.merge(k);
            }
        }
        h
    }

    pub(crate) fn span_summary(&self) -> SpanSummary {
        let mut s = SpanSummary::default();
        for t in &self.threads {
            s.add_thread(&t.spans, t.dropped);
        }
        s
    }

    /// Write the spans if the round asks for them, noting where.
    pub(crate) fn write_spans(&mut self, r: &Round, workload: &str, out: &mut RoundOut) {
        let Some(dir) = &r.span_dir else { return };
        let path = dir.join(format!("{workload}.spans.json"));
        let threads: Vec<Vec<Span>> = self
            .threads
            .iter_mut()
            .map(|t| std::mem::take(&mut t.spans))
            .collect();
        match crate::spans::write_json(&path, &threads) {
            Ok(()) => out
                .context
                .push(format!("spans written to {}", path.display())),
            Err(e) => out.fail(1, format!("writing {}: {e}", path.display())),
        }
    }
}

/// Builds of a workload's state per round, (at least, at most): past the
/// minimum, building stops once the round has spent `SETUP_BUDGET_S` on it.
const SETUPS: (usize, usize) = (5, 25);
const SETUP_BUDGET_S: f64 = 0.2;

/// Build the round's state several times (see `SETUPS`), freeing each build
/// before the next, and keep the last. Returns it with the fastest build's
/// time. On a shared host a millisecond-long build runs up to 1.7 times
/// slower for stretches of seconds (README.md); the fastest of many builds
/// moves far less between runs than their median.
pub(crate) fn set_up<T>(build: impl Fn() -> T) -> (T, f64) {
    let (min_builds, max_builds) = SETUPS;
    let (mut fastest, mut spent) = (f64::INFINITY, 0.0);
    let mut state = None;
    for i in 0..max_builds {
        if i >= min_builds && spent >= SETUP_BUDGET_S {
            break;
        }
        drop(state.take());
        let t = Instant::now();
        state = Some(build());
        let s = t.elapsed().as_secs_f64();
        fastest = fastest.min(s);
        spent += s;
    }
    (state.expect("at least one build"), fastest)
}

/// The amount of work a round does: `per_s` units for each of the round's
/// seconds, at least one. Work is fixed rather than time so that a faster
/// build does the same work (same inputs, same final state, same memory),
/// just sooner; the rates are what the reference host in README.md
/// managed when the benchmark was defined.
pub(crate) fn work(per_s: f64, secs: f64) -> u64 {
    ((per_s * secs).round() as u64).max(1)
}

/// Run `threads` closed-loop clients, each issuing `txns` transactions one
/// after another (the next as soon as the previous returns). In a traced
/// round every `stride(txns)`th transaction is traced.
/// `body(thread, seq, recorder)` runs transaction `seq` of `thread`.
pub(crate) fn closed_loop<F>(threads: usize, txns: u64, r: &Round, kinds: usize, body: F) -> Load
where
    F: Fn(usize, u64, Option<&Recorder>) -> Done + Sync,
{
    let base = Instant::now();
    let stride = stride(txns);
    let barrier = Barrier::new(threads);
    let threads = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|thread| {
                let (body, barrier) = (&body, &barrier);
                s.spawn(move || {
                    let rec = r.traced.then(|| Recorder::new(base));
                    let mut out = ThreadOut::new(if r.traced { kinds } else { 0 });
                    barrier.wait();
                    let mut t0 = Instant::now();
                    for seq in 0..txns {
                        let sampled = rec.as_ref().filter(|_| seq % stride == 0);
                        let done = body(thread, seq, sampled);
                        let t1 = Instant::now();
                        let ns = t1.duration_since(t0).as_nanos() as u64;
                        out.lat.record(ns);
                        if let Some(h) = out.kinds.get_mut(done.kind) {
                            h.record(ns);
                        }
                        out.txns += 1;
                        out.failed += u64::from(!done.ok);
                        t0 = t1;
                    }
                    out.keep_spans(rec);
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    Load {
        threads,
        elapsed: base.elapsed().as_secs_f64(),
    }
}

/// Semantic-layer counters summed over a workload's collections.
#[derive(Default, Clone, Copy)]
pub(crate) struct SemSums {
    acquisitions: u64,
    cache_hits: u64,
    stripe_blocked: u64,
    global_entries: u64,
    dooms: u64,
}

impl SemSums {
    fn of(stats: &[&SemanticStats]) -> SemSums {
        use std::sync::atomic::Ordering::Relaxed;
        let mut s = SemSums::default();
        for st in stats {
            s.acquisitions += st.lock_acquisitions.load(Relaxed);
            s.cache_hits += st.lock_cache_hits.load(Relaxed);
            s.stripe_blocked += st.stripe_lock_spins.load(Relaxed);
            s.global_entries += st.global_stripe_entries.load(Relaxed);
            s.dooms += st.total();
        }
        s
    }

    fn since(self, b: SemSums) -> SemSums {
        SemSums {
            acquisitions: self.acquisitions - b.acquisitions,
            cache_hits: self.cache_hits - b.cache_hits,
            stripe_blocked: self.stripe_blocked - b.stripe_blocked,
            global_entries: self.global_entries - b.global_entries,
            dooms: self.dooms - b.dooms,
        }
    }
}

/// Counters taken before the load starts.
pub(crate) struct Before {
    stats: StatsSnapshot,
    window: MetricsWindow,
    sem: SemSums,
    cpu: f64,
}

/// Counter differences across the load.
pub(crate) struct Deltas {
    pub(crate) stats: StatsSnapshot,
    window: MetricsWindow,
    sem: SemSums,
    cpu: f64,
}

impl Before {
    pub(crate) fn take(sem: &[&SemanticStats]) -> Before {
        Before {
            stats: stm::global_stats(),
            window: stm::metrics::window(),
            sem: SemSums::of(sem),
            cpu: measure::cpu_seconds(),
        }
    }

    pub(crate) fn delta(&self, sem: &[&SemanticStats]) -> Deltas {
        Deltas {
            stats: stm::global_stats().diff(&self.stats),
            window: stm::metrics::window().diff(&self.window),
            sem: SemSums::of(sem).since(self.sem),
            cpu: measure::cpu_seconds() - self.cpu,
        }
    }
}

/// `n / d`, and 0 when nothing happened.
pub(crate) fn ratio(n: u64, d: u64) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

/// The per-layer metrics every workload can derive from its counters and
/// spans. Workload-specific layers are set by the workload itself; the
/// rest read 0 where a workload does not exercise them.
pub(crate) fn layer_metrics(
    out: &mut RoundOut,
    d: &Deltas,
    spans: &SpanSummary,
    load_threads: usize,
    elapsed: f64,
) {
    let st = &d.stats;
    let c = st.commits;
    out.set("stm.runtime.begin_ns.p50", spans.p50_ns("begin"));
    out.set("stm.runtime.attempts_per_commit", ratio(c + st.aborts(), c));
    out.set(
        "stm.runtime.wasted_share",
        ratio(spans.wasted_ns, spans.txn_ns),
    );
    out.set("stm.commit_ns.p50", spans.p50_ns("commit"));
    out.set("stm.commit_ns.p99", spans.quantile_ns("commit", 0.99));
    out.set(
        "stm.clock.lane_entries_per_commit",
        ratio(st.lane_entries, c),
    );
    out.set(
        "stm.clock.var_lock_spins_per_commit",
        ratio(st.var_lock_spins, c),
    );
    let commit_hist = d.window.histogram(HistKind::CommitLatency);
    out.set(
        "stm.metrics.commit_latency_ns.p50",
        commit_hist.p50() as f64,
    );
    out.set(
        "stm.metrics.commit_latency_ns.p99",
        commit_hist.p99() as f64,
    );
    out.set(
        "stm.txn.read_invalid_per_commit",
        ratio(st.aborts_read_invalid, c),
    );
    out.set(
        "stm.txn.open_flattened_per_commit",
        ratio(st.open_flattened, c),
    );
    out.set("stm.txn.open_commits_per_commit", ratio(st.open_commits, c));
    out.set(
        "stm.tvar.chain_reclaimed_per_commit",
        ratio(st.chain_entries_reclaimed, c),
    );
    let snap_hist = d.window.histogram(HistKind::SnapshotRead);
    out.set("stm.metrics.snapshot_read_ns.p99", snap_hist.p99() as f64);
    let sem = &d.sem;
    out.set(
        "core.locks.acquisitions_per_commit",
        ratio(sem.acquisitions, c),
    );
    out.set(
        "core.kernel.cache_hit_share",
        ratio(sem.cache_hits, sem.cache_hits + sem.acquisitions),
    );
    out.set(
        "core.locks.stripe_blocked_per_commit",
        ratio(sem.stripe_blocked, c),
    );
    out.set(
        "core.locks.global_stripe_entries_per_commit",
        ratio(sem.global_entries, c),
    );
    out.set("core.locks.dooms_per_commit", ratio(sem.dooms, c));
    let wait_hist = d.window.histogram(HistKind::SemLockWait);
    out.set("stm.metrics.sem_lock_wait_ns.p99", wait_hist.p99() as f64);
    out.set("core.map.get_ns.p50", spans.p50_ns("op.map.get"));
    out.set("core.map.put_ns.p50", spans.p50_ns("op.map.put"));
    out.set("core.map.remove_ns.p50", spans.p50_ns("op.map.remove"));
    out.set(
        "core.map.snapshot_get_ns.p50",
        spans.p50_ns("op.map.snapshot_get"),
    );
    out.set("bench.cpu_share", d.cpu / (elapsed * load_threads as f64));
    out.set("bench.spans_dropped", spans.dropped as f64);
    if spans.txns > 0 {
        out.context.push(format!(
            "traced {} of the round's transactions, {} spans dropped",
            spans.txns, spans.dropped
        ));
    }
}
