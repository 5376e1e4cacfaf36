//! The five workloads. Each builds fresh state from the round's seed,
//! drives load through the public APIs, checks the result, and reports
//! its metrics. Why each one exists is in README.md.

use crate::load::{
    closed_loop, describe, layer_metrics, ratio, set_up, work, Before, Deltas, Done, Load, Round,
    RoundOut, ThreadOut,
};
use crate::measure::{self, Hist};
use crate::spans::{run_read, run_txn, stride, Recorder};
use bench::testmap::{
    LockMapFlavor, TestCompoundLock, TestCompoundTm, TestMapLock, TestMapTm, TmMapFlavor, KEY_SPACE,
};
use jbb::{
    op_for, JMap, JSorted, JbbLockWorkload, JbbTmWorkload, LockWarehouse, OpKind, TmConfig,
    TmWarehouse, TxnRng, DEFAULT_THINK,
};
use sim::{TmResult, TmWorkload};
use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use stm::metrics::MetricsConfig;
use txcollections::{MapBackend, SemanticStats, TransactionalMap, TransactionalSortedMap};
use txstruct::{BoostedHashMap, LockHashMap, LockTreeMap, TxHashMap, TxTreeMap};

pub(crate) const WORKLOADS: [&str; 5] =
    ["point", "long_mixed", "jbb", "snapshot_scan", "paper_sim"];

/// Run one round of `workload` in this process.
pub(crate) fn run(workload: &str, r: &Round) -> RoundOut {
    match workload {
        "point" => point(r),
        "long_mixed" => long_mixed(r),
        "jbb" => jbb_round(r),
        "snapshot_scan" => snapshot_scan(r),
        "paper_sim" => paper_sim(r),
        other => unreachable!("workload {other} is checked when arguments are parsed"),
    }
}

/// Identifies transaction `seq` of `thread` in spans.
fn txn_id(thread: usize, seq: u64) -> u64 {
    ((thread as u64) << 40) | seq
}

/// Load `keys` into `map`, 1024 puts per transaction.
fn preload<B: MapBackend<u64, u64>>(
    map: &TransactionalMap<u64, u64, B>,
    keys: &[u64],
    value: impl Fn(u64) -> u64,
) {
    for chunk in keys.chunks(1024) {
        stm::atomic(|tx| {
            for &k in chunk {
                map.put_discard(tx, k, value(k));
            }
        });
    }
}

/// The shared tail of the real-thread workloads: end-to-end metrics, and in
/// a traced round the layer metrics and span file.
fn finish(name: &str, r: &Round, out: &mut RoundOut, setup_s: f64, load: &mut Load, d: &Deltas) {
    let txns = load.txns();
    out.attempted += txns;
    let retries = d.stats.aborts() + d.stats.snapshot_fallbacks;
    out.end_to_end(setup_s, txns, txns + retries, load.elapsed, &load.latency());
    if r.traced {
        layer_metrics(
            out,
            d,
            &load.span_summary(),
            load.threads.len(),
            load.elapsed,
        );
        load.write_spans(r, name, out);
    }
}

// ----------------------------------------------------------------------
// point: single-op transactions on a boosted map
// ----------------------------------------------------------------------

const POINT_KEYS: u64 = 65_536;
/// Transactions per load thread per second of the round.
const POINT_TXNS_PER_S: f64 = 280_000.0;
/// Marks a value written by the load (preloaded values are the key).
const PUT_TAG: u64 = 1 << 63;

/// Transaction `seq` of `thread`: a put (10%) or a get (90%) of one key.
fn point_op(seed: u64, thread: usize, seq: u64) -> (bool, u64) {
    let mut rng = TxnRng::new(seed, thread, seq as usize);
    let put = rng.below(100) >= 90;
    (put, rng.below(POINT_KEYS))
}

/// Is `v` what some transaction of this round put at `key`?
fn point_value_ok(seed: u64, key: u64, v: u64) -> bool {
    if v & PUT_TAG == 0 {
        return v == key;
    }
    let thread = ((v & !PUT_TAG) >> 40) as usize;
    let seq = v & ((1 << 40) - 1);
    thread < 2 && point_op(seed, thread, seq) == (true, key)
}

fn point(r: &Round) -> RoundOut {
    let seed = r.input_seed();
    let mut out = RoundOut::default();
    let keys: Vec<u64> = (0..POINT_KEYS).collect();
    let (map, setup_s) = set_up(|| {
        let map: TransactionalMap<u64, u64, BoostedHashMap<u64, u64>> = TransactionalMap::boosted();
        preload(&map, &keys, |k| k);
        map
    });

    let _metrics = r.traced.then(|| MetricsConfig::default().enable());
    let sem = [map.semantic_stats()];
    let before = Before::take(&sem);
    let mut load = closed_loop(
        2,
        work(POINT_TXNS_PER_S, r.secs),
        r,
        0,
        |thread, seq, rec| {
            let id = txn_id(thread, seq);
            let ok = match point_op(seed, thread, seq) {
                (true, key) => {
                    let v = PUT_TAG | id;
                    run_txn(rec, id, |tx, p| {
                        p.op("op.map.put", || map.put_discard(tx, key, v))
                    });
                    true
                }
                (false, key) => {
                    run_txn(rec, id, |tx, p| p.op("op.map.get", || map.get(tx, &key))).is_some()
                }
            };
            Done { kind: 0, ok }
        },
    );
    let d = before.delta(&sem);

    out.fail(
        load.failed(),
        format!("{} gets found no value", load.failed()),
    );
    let entries = stm::atomic(|tx| map.entries(tx));
    let size = stm::atomic(|tx| map.size(tx)) as u64;
    out.fail(
        u64::from(size != POINT_KEYS) + (entries.len() as u64).abs_diff(POINT_KEYS),
        format!(
            "size {size}, {} entries, expected {POINT_KEYS}",
            entries.len()
        ),
    );
    let bad = entries
        .iter()
        .filter(|&&(k, v)| !point_value_ok(seed, k, v))
        .count() as u64;
    out.fail(bad, format!("{bad} values no transaction wrote"));

    finish("point", r, &mut out, setup_s, &mut load, &d);
    if r.traced {
        let raw_ns = raw_boosted_op_ns(seed, work(POINT_TXNS_PER_S, r.secs));
        out.set("txstruct.boosted.op_ns.p50", raw_ns);
        out.context
            .push(format!("raw BoostedHashMap op p50 {raw_ns} ns"));
    }
    out
}

/// The point key/op stream, `ops` per thread, on a bare `BoostedHashMap`
/// with 2 threads and no STM: the floor a boosted single-op transaction
/// could reach. Ops are timed in batches of 64 so the clock read does not
/// dominate; returns the median per-op time of the batches.
fn raw_boosted_op_ns(seed: u64, ops: u64) -> f64 {
    const BATCH: u64 = 64;
    let map: BoostedHashMap<u64, u64> = BoostedHashMap::new();
    for k in 0..POINT_KEYS {
        map.insert(k, k);
    }
    let barrier = Barrier::new(2);
    let hists: Vec<Hist> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|thread| {
                let (map, barrier) = (&map, &barrier);
                s.spawn(move || {
                    let mut h = Hist::new();
                    barrier.wait();
                    for batch in 0..ops.div_ceil(BATCH) {
                        let t0 = Instant::now();
                        for seq in batch * BATCH..(batch + 1) * BATCH {
                            match point_op(seed, thread, seq) {
                                (true, key) => {
                                    map.insert(key, PUT_TAG | txn_id(thread, seq));
                                }
                                (false, key) => {
                                    black_box(map.get(&key));
                                }
                            }
                        }
                        h.record(t0.elapsed().as_nanos() as u64 / BATCH);
                    }
                    h
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("raw thread panicked"))
            .collect()
    });
    let mut all = Hist::new();
    for h in &hists {
        all.merge(h);
    }
    all.quantile_ns(0.5) as f64
}

// ----------------------------------------------------------------------
// long_mixed: 16-op transactions with compute between the ops
// ----------------------------------------------------------------------

const MIXED_KEYS: u64 = 4096;
const MIXED_HOT: u64 = 64;
const MIXED_OPS: usize = 16;
const MIXED_TXNS_PER_S: f64 = 19_500.0;
/// Iterations of `compute` between two ops: about 1 µs on a 3 GHz core.
const COMPUTE_ITERS: u32 = 700;

/// A fixed amount of work that the compiler cannot fold away.
fn compute(iters: u32) -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..iters {
        x = black_box(x)
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
    }
    x
}

fn long_mixed(r: &Round) -> RoundOut {
    let seed = r.input_seed();
    let mut out = RoundOut::default();
    let keys: Vec<u64> = (0..MIXED_KEYS).collect();
    let (map, setup_s) = set_up(|| {
        let map: TransactionalMap<u64, u64> = TransactionalMap::with_capacity(8192);
        preload(&map, &keys, |_| 0);
        map
    });

    let _metrics = r.traced.then(|| MetricsConfig::default().enable());
    let sem = [map.semantic_stats()];
    let before = Before::take(&sem);
    let mut load = closed_loop(
        2,
        work(MIXED_TXNS_PER_S, r.secs),
        r,
        0,
        |thread, seq, rec| {
            let rng = TxnRng::new(seed, thread, seq as usize);
            run_txn(rec, txn_id(thread, seq), |tx, p| {
                let mut rng = rng.clone();
                for op in 0..MIXED_OPS {
                    let key = if rng.below(2) == 0 {
                        rng.below(MIXED_HOT)
                    } else {
                        rng.below(MIXED_KEYS)
                    };
                    let v = p.op("op.map.get", || map.get(tx, &key));
                    if op % 4 == 3 {
                        let next = v.unwrap_or(0) + 1;
                        p.op("op.map.put", || map.put_discard(tx, key, next));
                    }
                    black_box(compute(COMPUTE_ITERS));
                }
            });
            Done { kind: 0, ok: true }
        },
    );
    let d = before.delta(&sem);

    // Every commit adds exactly 4; anything else is a lost or phantom update.
    let sum: u64 = stm::atomic(|tx| map.entries(tx))
        .iter()
        .map(|&(_, v)| v)
        .sum();
    let expected = 4 * load.txns();
    out.fail(
        sum.abs_diff(expected),
        format!(
            "sum of values {sum}, expected 4 x {} commits = {expected}",
            load.txns()
        ),
    );
    finish("long_mixed", r, &mut out, setup_s, &mut load, &d);
    out
}

// ----------------------------------------------------------------------
// jbb: the SPECjbb-like warehouse on real threads
// ----------------------------------------------------------------------

const JBB_TXNS_PER_S: f64 = 29_000.0;

const JBB_KINDS: [(OpKind, &str); 5] = [
    (OpKind::NewOrder, "new_order"),
    (OpKind::Payment, "payment"),
    (OpKind::OrderStatus, "order_status"),
    (OpKind::Delivery, "delivery"),
    (OpKind::StockLevel, "stock_level"),
];

fn jbb_collections(w: &TmWarehouse) -> Vec<&SemanticStats> {
    let mut v = Vec::new();
    if let JMap::Wrapped(m) = &w.customer_index {
        v.push(m.semantic_stats());
    }
    if let JMap::Wrapped(m) = &w.history_table {
        v.push(m.semantic_stats());
    }
    for d in &w.districts {
        if let JSorted::Wrapped(m) = &d.order_table {
            v.push(m.semantic_stats());
        }
        if let JSorted::Wrapped(m) = &d.new_order_table {
            v.push(m.semantic_stats());
        }
    }
    v
}

fn jbb_round(r: &Round) -> RoundOut {
    let seed = r.input_seed();
    let mut out = RoundOut::default();
    let (w, setup_s) = set_up(|| TmWarehouse::new(TmConfig::Transactional));

    let _metrics = r.traced.then(|| MetricsConfig::default().enable());
    let sem = jbb_collections(&w);
    let before = Before::take(&sem);
    let txns = work(JBB_TXNS_PER_S, r.secs);
    let mut load = closed_loop(2, txns, r, JBB_KINDS.len(), |thread, seq, rec| {
        let rng = TxnRng::new(seed, thread, seq as usize);
        // `run_op` draws the op kind from the rng's first value.
        let kind = op_for(rng.clone().next());
        run_txn(rec, txn_id(thread, seq), |tx, _| {
            w.run_op(tx, &mut rng.clone(), DEFAULT_THINK)
        });
        let kind = JBB_KINDS.iter().position(|&(k, _)| k == kind).unwrap_or(0);
        Done { kind, ok: true }
    });
    let d = before.delta(&sem);

    if let Err(e) = w.check_invariants() {
        out.fail(1, format!("warehouse invariant: {e}"));
    }
    finish("jbb", r, &mut out, setup_s, &mut load, &d);
    if r.traced {
        for (i, (_, name)) in JBB_KINDS.iter().enumerate() {
            let h = load.kind_latency(i);
            out.set(&format!("jbb.{name}_us.p50"), h.quantile_us(0.50));
            out.set(&format!("jbb.{name}_us.p99"), h.quantile_us(0.99));
            out.context.push(describe(name, &h));
        }
    }
    out
}

// ----------------------------------------------------------------------
// snapshot_scan: an open-loop writer beside a closed-loop snapshot reader
// ----------------------------------------------------------------------

const SCAN_KEYS: u64 = 4096;
const SCAN_PRESENT: usize = 2048;
const SCAN_WIDTH: u64 = 64;
const WRITES_PER_S: f64 = 20_000.0;
/// Reads per write the reader reaches (about 6.5 on the reference host);
/// only sizes the reader's sampling stride.
const READS_PER_WRITE: u64 = 8;

fn snapshot_scan(r: &Round) -> RoundOut {
    let seed = r.input_seed();
    let mut out = RoundOut::default();
    let ((map, mut present, mut absent), setup_s) = set_up(|| {
        // Which half of the key space starts present is drawn from the seed.
        let mut keys: Vec<u64> = (0..SCAN_KEYS).collect();
        let mut rng = TxnRng::new(seed, usize::MAX, 0);
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let absent = keys.split_off(SCAN_PRESENT);
        let map: TransactionalMap<u64, u64> = TransactionalMap::with_capacity(8192);
        preload(&map, &keys, |k| k);
        (map, keys, absent)
    });

    let _metrics = r.traced.then(|| MetricsConfig::default().enable());
    let sem = [map.semantic_stats()];
    let before = Before::take(&sem);
    let writes = work(WRITES_PER_S, r.secs);
    let (write_stride, read_stride) = (stride(writes), stride(writes * READS_PER_WRITE));
    let base = Instant::now();
    let interval = Duration::from_secs_f64(1.0 / WRITES_PER_S);
    let writer_done = AtomicBool::new(false);
    let barrier = Barrier::new(2);
    let (writer, lag, reader) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let rec = r.traced.then(|| Recorder::new(base));
            let mut mine = ThreadOut::new(0);
            let mut lag = Hist::new();
            barrier.wait();
            for seq in 0..writes {
                let due = base + interval.mul_f64(seq as f64);
                let mut now = Instant::now();
                while now < due {
                    std::thread::yield_now();
                    now = Instant::now();
                }
                lag.record(now.duration_since(due).as_nanos() as u64);
                let mut rng = TxnRng::new(seed, 0, seq as usize);
                let i = rng.below(present.len() as u64) as usize;
                let j = rng.below(absent.len() as u64) as usize;
                let (gone, new) = (present[i], absent[j]);
                let sampled = rec.as_ref().filter(|_| seq % write_stride == 0);
                run_txn(sampled, txn_id(0, seq), |tx, p| {
                    p.op("op.map.remove", || map.remove_discard(tx, &gone));
                    p.op("op.map.put", || map.put_discard(tx, new, new));
                });
                // An open-loop request's latency counts from when it was due.
                mine.lat.record(due.elapsed().as_nanos() as u64);
                mine.txns += 1;
                (present[i], absent[j]) = (new, gone);
            }
            writer_done.store(true, Ordering::Release);
            mine.keep_spans(rec);
            (mine, lag)
        });
        let reader = s.spawn(|| {
            let rec = r.traced.then(|| Recorder::new(base));
            let mut mine = ThreadOut::new(0);
            barrier.wait();
            let mut t0 = Instant::now();
            for seq in 0u64.. {
                let first = TxnRng::new(seed, 1, seq as usize).below(SCAN_KEYS);
                let sampled = rec.as_ref().filter(|_| seq % read_stride == 0);
                let size = run_read(sampled, txn_id(1, seq), |tx, p| {
                    let size = p.op("op.map.size", || map.size(tx));
                    for k in first..first + SCAN_WIDTH {
                        black_box(p.op("op.map.snapshot_get", || map.get(tx, &(k % SCAN_KEYS))));
                    }
                    size
                });
                let t1 = Instant::now();
                mine.lat.record(t1.duration_since(t0).as_nanos() as u64);
                mine.txns += 1;
                // One in-flight commit may be half inside a snapshot cut.
                mine.failed += u64::from(size.abs_diff(SCAN_PRESENT) > 1);
                if writer_done.load(Ordering::Acquire) {
                    break;
                }
                t0 = t1;
            }
            mine.keep_spans(rec);
            mine
        });
        let (w, lag) = writer.join().expect("writer panicked");
        (w, lag, reader.join().expect("reader panicked"))
    });
    let elapsed = base.elapsed().as_secs_f64();
    let d = before.delta(&sem);

    let reads = reader.txns;
    out.fail(
        reader.failed,
        format!("{} snapshots saw a size off by more than 1", reader.failed),
    );
    let size = stm::atomic(|tx| map.size(tx));
    let mut keys = stm::atomic(|tx| map.keys(tx));
    keys.sort_unstable();
    present.sort_unstable();
    out.fail(
        u64::from(size != SCAN_PRESENT || keys != present),
        format!(
            "final size {size}, keys match the writer's: {}",
            keys == present
        ),
    );
    out.context
        .push(describe("writer (from due time)", &writer.lat));
    out.context.push(describe("reader", &reader.lat));
    out.context.push(describe("writer lateness", &lag));
    out.set("read_p50_us", reader.lat.quantile_us(0.50));
    out.set("read_p99_us", reader.lat.quantile_us(0.99));
    let mut load = Load {
        threads: vec![writer, reader],
        elapsed,
    };
    let read_max_ms = load.threads[1].lat.max_ns() as f64 / 1e6;
    finish("snapshot_scan", r, &mut out, setup_s, &mut load, &d);
    if r.traced {
        out.set(
            "stm.epoch.fallbacks_per_10k_reads",
            ratio(d.stats.snapshot_fallbacks * 10_000, reads),
        );
        out.set("stm.epoch.read_max_ms", read_max_ms);
        out.set("bench.gen_lag_us.p99", lag.quantile_us(0.99));
    }
    out
}

// ----------------------------------------------------------------------
// paper_sim: the Figs. 1-4 series in the deterministic simulator
// ----------------------------------------------------------------------

/// One figure's points: the Transactional series at 8 and 32 CPUs, the
/// bare series at 32, against the 1-CPU Java throughput.
struct Figure {
    java1: f64,
    tx8: TmResult,
    tx32: TmResult,
    bare32: TmResult,
}

impl Figure {
    fn speedup(&self, r: &TmResult) -> f64 {
        bench::throughput(r.commits, r.makespan) / self.java1
    }
}

fn violations(r: &TmResult) -> u64 {
    r.violations_memory + r.violations_semantic
}

/// A simulated workload whose transaction bodies are timed on the host.
/// A sample runs from the end of the previous body to the end of this one,
/// so the simulator's own work between bodies counts too.
struct Timed<W> {
    inner: W,
    last: Cell<Instant>,
    lat: RefCell<Hist>,
}

impl<W: TmWorkload> TmWorkload for Timed<W> {
    fn txn_count(&self, cpu: usize) -> usize {
        self.inner.txn_count(cpu)
    }

    fn run(&self, cpu: usize, seq: usize, tx: &mut stm::Txn) {
        self.inner.run(cpu, seq, tx);
        let now = Instant::now();
        let ns = now.duration_since(self.last.replace(now)).as_nanos() as u64;
        self.lat.borrow_mut().record(ns);
    }
}

/// Host-side accounting of one pass over the four figures.
#[derive(Default)]
struct SimPass {
    /// Each build's time, in the order every pass builds them.
    builds_s: Vec<f64>,
    host_s: f64,
    sim_txns: u64,
    tm_violations: u64,
    /// Host time per simulated transaction attempt, over the pass's TM runs.
    lat: Hist,
    failed: Vec<String>,
}

impl SimPass {
    /// Build a workload (set-up time), simulate it on `cpus` virtual CPUs
    /// (host time), and check that it committed everything.
    fn tm<W: TmWorkload>(
        &mut self,
        cpus: usize,
        txns_per_cpu: usize,
        build: impl FnOnce() -> W,
        check: impl FnOnce(&W) -> Result<(), String>,
    ) -> TmResult {
        let t = Instant::now();
        let inner = build();
        self.builds_s.push(t.elapsed().as_secs_f64());
        let w = Timed {
            inner,
            last: Cell::new(Instant::now()),
            lat: RefCell::new(Hist::new()),
        };
        let t = Instant::now();
        let res = sim::run_tm(cpus, &w);
        self.host_s += t.elapsed().as_secs_f64();
        self.lat.merge(&w.lat.borrow());
        self.sim_txns += res.commits;
        self.tm_violations += violations(&res);
        let want = (cpus * txns_per_cpu) as u64;
        if res.commits != want {
            self.failed.push(format!(
                "{cpus}-CPU run committed {} of {want}",
                res.commits
            ));
        }
        if let Err(e) = check(&w.inner) {
            self.failed.push(e);
        }
        res
    }

    /// The 1-CPU Java (lock) throughput every speedup is relative to.
    fn java1<W: sim::LockWorkload>(&mut self, build: impl FnOnce() -> W) -> f64 {
        let t = Instant::now();
        let w = build();
        self.builds_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let res = sim::run_lock(1, &w);
        self.host_s += t.elapsed().as_secs_f64();
        self.sim_txns += res.commits;
        bench::throughput(res.commits, res.makespan)
    }
}

/// Transactions per CPU and seeds of the `fig*` binaries, so the speedups
/// are the ones those binaries print. `--quick` divides the counts by 10.
const FIG_TXNS: [usize; 4] = [400, 300, 300, 96];
const FIG_SEEDS: [u64; 4] = [0xF161_ABCD, 0xF162_0001, 0xF163_0007, 0xF164_0042];
/// Passes over the four figures per second of the round.
const SIM_PASSES_PER_S: f64 = 0.87;
/// How far a pass's Fig. 2 speedup may stray from the round's median. The
/// series is not repeatable (README.md): passes seen so far stray by up to
/// 1.1%.
const FIG2_TOLERANCE: f64 = 0.03;

fn no_check<W>(_: &W) -> Result<(), String> {
    Ok(())
}

/// The preloaded map of a TM series: hash (Figs. 1, 3) or tree (Fig. 2),
/// wrapped in a transactional collection class or bare.
fn tm_map(tree: bool, wrapped: bool) -> TmMapFlavor {
    let cap = 2 * KEY_SPACE as usize;
    let map = match (tree, wrapped) {
        (false, true) => TmMapFlavor::WrappedHash(TransactionalMap::with_capacity(cap)),
        (false, false) => TmMapFlavor::BareHash(TxHashMap::with_capacity(cap)),
        (true, true) => TmMapFlavor::WrappedTree(TransactionalSortedMap::new()),
        (true, false) => TmMapFlavor::BareTree(TxTreeMap::new()),
    };
    map.preload();
    map
}

/// The preloaded map of a Java series.
fn lock_map(tree: bool) -> LockMapFlavor {
    let map = if tree {
        LockMapFlavor::Tree(LockTreeMap::new())
    } else {
        LockMapFlavor::Hash(LockHashMap::new())
    };
    map.preload();
    map
}

fn figures(pass: &mut SimPass, quick: bool) -> [Figure; 4] {
    let scale = if quick { 10 } else { 1 };
    let n: [usize; 4] = FIG_TXNS.map(|t| t / scale);
    // Figs. 1 and 2: TestMap on a hash map and on a tree.
    let testmap = |p: &mut SimPass, fig: usize, tree: bool| {
        let mut tm = |cpus, wrapped| {
            p.tm(
                cpus,
                n[fig],
                || TestMapTm {
                    map: tm_map(tree, wrapped),
                    txns_per_cpu: n[fig],
                    seed: FIG_SEEDS[fig],
                },
                no_check,
            )
        };
        let (tx8, tx32, bare32) = (tm(8, true), tm(32, true), tm(32, false));
        Figure {
            java1: p.java1(|| TestMapLock {
                map: lock_map(tree),
                txns_per_cpu: n[fig],
                seed: FIG_SEEDS[fig],
            }),
            tx8,
            tx32,
            bare32,
        }
    };
    let fig1 = testmap(pass, 0, false);
    let fig2 = testmap(pass, 1, true);
    // Fig. 3: TestCompound.
    let mut compound = |cpus, wrapped| {
        pass.tm(
            cpus,
            n[2],
            || TestCompoundTm {
                map: tm_map(false, wrapped),
                txns_per_cpu: n[2],
                seed: FIG_SEEDS[2],
            },
            no_check,
        )
    };
    let (tx8, tx32, bare32) = (compound(8, true), compound(32, true), compound(32, false));
    let fig3 = Figure {
        java1: pass.java1(|| TestCompoundLock {
            map: lock_map(false),
            txns_per_cpu: n[2],
            seed: FIG_SEEDS[2],
        }),
        tx8,
        tx32,
        bare32,
    };
    // Fig. 4: SPECjbb; the bare series is the Atomos Baseline.
    let mut jbb = |cpus, config| {
        pass.tm(
            cpus,
            n[3],
            || JbbTmWorkload {
                warehouse: TmWarehouse::new(config),
                txns_per_cpu: n[3],
                seed: FIG_SEEDS[3],
                think: DEFAULT_THINK,
            },
            |w: &JbbTmWorkload| w.warehouse.check_invariants(),
        )
    };
    let (tx8, tx32, bare32) = (
        jbb(8, TmConfig::Transactional),
        jbb(32, TmConfig::Transactional),
        jbb(32, TmConfig::Baseline),
    );
    let fig4 = Figure {
        java1: pass.java1(|| JbbLockWorkload {
            warehouse: LockWarehouse::new(),
            txns_per_cpu: n[3],
            seed: FIG_SEEDS[3],
            think: DEFAULT_THINK,
        }),
        tx8,
        tx32,
        bare32,
    };
    [fig1, fig2, fig3, fig4]
}

fn paper_sim(r: &Round) -> RoundOut {
    let mut out = RoundOut::default();
    let _metrics = r.traced.then(|| MetricsConfig::default().enable());
    let before = Before::take(&[]);
    let start = Instant::now();
    let passes: Vec<(SimPass, [Figure; 4])> = (0..work(SIM_PASSES_PER_S, r.secs))
        .map(|_| {
            let mut pass = SimPass::default();
            let figs = figures(&mut pass, r.quick);
            (pass, figs)
        })
        .collect();
    let d = before.delta(&[]);

    // A figure's value over the passes: its median.
    let over_passes = |f: &dyn Fn(&Figure) -> f64, fig: usize| {
        let v: Vec<f64> = passes.iter().map(|(_, figs)| f(&figs[fig])).collect();
        measure::median(&v)
    };
    let speedup_32 = |f: &Figure| f.speedup(&f.tx32);
    for (k, (pass, figs)) in passes.iter().enumerate() {
        out.fail(
            pass.failed.len() as u64,
            format!("pass {k}: {}", pass.failed.join("; ")),
        );
        for (i, f) in figs.iter().enumerate() {
            let (tx, bare) = (speedup_32(f), f.speedup(&f.bare32));
            out.fail(
                u64::from(tx <= bare),
                format!(
                    "fig{}: Transactional {tx}x does not beat bare {bare}x at 32 CPUs",
                    i + 1
                ),
            );
            // Figs. 1, 3 and 4 repeat bit for bit; Fig. 2 does not.
            let (off, reference) = if i == 1 {
                let median = over_passes(&speedup_32, i);
                ((tx / median - 1.0).abs() > FIG2_TOLERANCE, median)
            } else {
                let first = speedup_32(&passes[0].1[i]);
                (tx != first, first)
            };
            out.fail(
                u64::from(off),
                format!(
                    "fig{} speedup {tx} in pass {k}, {reference} expected",
                    i + 1
                ),
            );
        }
    }

    let host: Vec<f64> = passes.iter().map(|(p, _)| p.host_s).collect();
    let host_s: f64 = host.iter().sum();
    let sim_txns: u64 = passes.iter().map(|(p, _)| p.sim_txns).sum();
    let violated: u64 = passes.iter().map(|(p, _)| p.tm_violations).sum();
    // Every build's fastest time over the passes, summed: one pass's
    // builds, timed as `set_up` times a workload's state.
    let setup_s: f64 = (0..passes[0].0.builds_s.len())
        .map(|i| {
            passes
                .iter()
                .map(|(p, _)| p.builds_s[i])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let mut lat = Hist::new();
    for (p, _) in &passes {
        lat.merge(&p.lat);
    }
    out.attempted += sim_txns;
    // Throughput is simulated transactions per host second of simulation,
    // latency the host time of a simulated transaction attempt, and a
    // violated simulated transaction an aborted attempt.
    out.end_to_end(setup_s, sim_txns, sim_txns + violated, host_s, &lat);
    for i in 0..4 {
        out.context.push(format!(
            "fig{}: Transactional {:.4}x at 8, {:.4}x at 32 ({} violations); bare {:.4}x at 32",
            i + 1,
            over_passes(&|f| f.speedup(&f.tx8), i),
            over_passes(&speedup_32, i),
            over_passes(&|f| violations(&f.tx32) as f64, i),
            over_passes(&|f| f.speedup(&f.bare32), i),
        ));
    }
    if r.traced {
        layer_metrics(
            &mut out,
            &d,
            &Default::default(),
            1,
            start.elapsed().as_secs_f64(),
        );
        for i in 0..4 {
            out.set(
                &format!("sim.fig{}.speedup_32", i + 1),
                over_passes(&speedup_32, i),
            );
            out.set(
                &format!("sim.fig{}.violations_32", i + 1),
                over_passes(&|f| violations(&f.tx32) as f64, i),
            );
        }
        out.set("sim.fig4.speedup_8", over_passes(&|f| f.speedup(&f.tx8), 3));
        out.set(
            "sim.fig4.lost_cycle_share_32",
            over_passes(
                &|f| {
                    ratio(
                        f.tx32.lost_cycles,
                        f.tx32.lost_cycles + f.tx32.useful_cycles,
                    )
                },
                3,
            ),
        );
        out.set("sim.host_s", measure::median(&host));
    }
    out
}
