//! Shape-regression tests for the paper's figures: scaled-down versions of
//! the fig1–fig4 sweeps asserting the qualitative results that constitute
//! the reproduction — who wins, by roughly what factor, where curves
//! flatten. If a change to the STM, the collections, or the simulator breaks
//! a paper-level conclusion, these fail.

use bench::testmap::{
    LockMapFlavor, TestCompoundLock, TestCompoundTm, TestMapLock, TestMapTm, TmMapFlavor,
};
use bench::throughput;
use jbb::{JbbLockWorkload, JbbTmWorkload, LockWarehouse, TmConfig, TmWarehouse, DEFAULT_THINK};
use txcollections::{TransactionalMap, TransactionalSortedMap};
use txstruct::{LockHashMap, LockTreeMap, TxHashMap, TxTreeMap};

const TXNS: usize = 150;
const SEED: u64 = 0x5EED_0001;

fn tm_throughput(map: TmMapFlavor, cpus: usize) -> f64 {
    let w = TestMapTm {
        map,
        txns_per_cpu: TXNS,
        seed: SEED,
    };
    w.map.preload();
    let r = sim::run_tm(cpus, &w);
    throughput(r.commits, r.makespan)
}

fn lock_throughput(map: LockMapFlavor, cpus: usize) -> f64 {
    let w = TestMapLock {
        map,
        txns_per_cpu: TXNS,
        seed: SEED,
    };
    w.map.preload();
    let r = sim::run_lock(cpus, &w);
    throughput(r.commits, r.makespan)
}

#[test]
fn figure1_shape() {
    let java1 = lock_throughput(LockMapFlavor::Hash(LockHashMap::new()), 1);
    let java16 = lock_throughput(LockMapFlavor::Hash(LockHashMap::new()), 16);
    let bare16 = tm_throughput(TmMapFlavor::BareHash(TxHashMap::with_capacity(8192)), 16);
    let wrapped16 = tm_throughput(
        TmMapFlavor::WrappedHash(TransactionalMap::with_capacity(8192)),
        16,
    );
    let java_s = java16 / java1;
    let bare_s = bare16 / java1;
    let wrapped_s = wrapped16 / java1;
    // Java scales nearly linearly.
    assert!(
        java_s > 13.0,
        "Java HashMap speedup at 16 CPUs: {java_s:.1}"
    );
    // The bare map plateaus far below.
    assert!(
        bare_s < java_s * 0.7,
        "bare TxHashMap should plateau (bare {bare_s:.1} vs java {java_s:.1})"
    );
    // The wrapper recovers Java-level scaling.
    assert!(
        wrapped_s > java_s * 0.85,
        "TransactionalMap should recover scaling (wrapped {wrapped_s:.1} vs java {java_s:.1})"
    );
}

#[test]
fn figure2_shape() {
    let java1 = lock_throughput(LockMapFlavor::Tree(LockTreeMap::new()), 1);
    let java16 = lock_throughput(LockMapFlavor::Tree(LockTreeMap::new()), 16);
    let bare16 = tm_throughput(TmMapFlavor::BareTree(TxTreeMap::new()), 16);
    let wrapped16 = tm_throughput(TmMapFlavor::WrappedTree(TransactionalSortedMap::new()), 16);
    let java_s = java16 / java1;
    let bare_s = bare16 / java1;
    let wrapped_s = wrapped16 / java1;
    assert!(
        java_s > 13.0,
        "Java TreeMap speedup at 16 CPUs: {java_s:.1}"
    );
    assert!(
        bare_s < java_s * 0.6,
        "bare TxTreeMap should fail to scale (bare {bare_s:.1} vs java {java_s:.1})"
    );
    assert!(
        wrapped_s > java_s * 0.8,
        "TransactionalSortedMap should recover scaling \
         (wrapped {wrapped_s:.1} vs java {java_s:.1})"
    );
}

/// The wrapped sorted map applies each commit's buffered writes in key
/// order, not in its hash map's per-process order, so the tree's shape and
/// every conflict that follows from it repeat: two runs of the Fig. 2
/// wrapped series in one process agree exactly.
#[test]
fn figure2_wrapped_series_is_repeatable() {
    let run = || {
        let w = TestMapTm {
            map: TmMapFlavor::WrappedTree(TransactionalSortedMap::new()),
            txns_per_cpu: TXNS,
            seed: SEED,
        };
        w.map.preload();
        let r = sim::run_tm(16, &w);
        (
            r.commits,
            r.makespan,
            r.violations_memory,
            r.violations_semantic,
        )
    };
    assert_eq!(run(), run(), "(commits, makespan, violations) diverged");
}

#[test]
fn figure3_shape() {
    // Compound operations: coarse-lock Java is pinned near 2 while the
    // wrapper scales.
    let java1 = {
        let w = TestCompoundLock {
            map: LockMapFlavor::Hash(LockHashMap::new()),
            txns_per_cpu: TXNS,
            seed: SEED,
        };
        w.map.preload();
        let r = sim::run_lock(1, &w);
        throughput(r.commits, r.makespan)
    };
    let java16 = {
        let w = TestCompoundLock {
            map: LockMapFlavor::Hash(LockHashMap::new()),
            txns_per_cpu: TXNS,
            seed: SEED,
        };
        w.map.preload();
        let r = sim::run_lock(16, &w);
        throughput(r.commits, r.makespan)
    };
    let wrapped16 = {
        let w = TestCompoundTm {
            map: TmMapFlavor::WrappedHash(TransactionalMap::with_capacity(8192)),
            txns_per_cpu: TXNS,
            seed: SEED,
        };
        w.map.preload();
        let r = sim::run_tm(16, &w);
        throughput(r.commits, r.makespan)
    };
    let java_s = java16 / java1;
    let wrapped_s = wrapped16 / java1;
    assert!(
        java_s < 3.0,
        "coarse lock held across computation must serialize (got {java_s:.1})"
    );
    assert!(
        wrapped_s > 12.0,
        "composed transactions should scale (got {wrapped_s:.1})"
    );
}

#[test]
fn figure4_shape() {
    let cpus = 16;
    let txns = 48;
    let java1 = {
        let w = JbbLockWorkload {
            warehouse: LockWarehouse::new(),
            txns_per_cpu: txns,
            seed: SEED,
            think: DEFAULT_THINK,
        };
        let r = sim::run_lock(1, &w);
        throughput(r.commits, r.makespan)
    };
    let java = {
        let w = JbbLockWorkload {
            warehouse: LockWarehouse::new(),
            txns_per_cpu: txns,
            seed: SEED,
            think: DEFAULT_THINK,
        };
        let r = sim::run_lock(cpus, &w);
        throughput(r.commits, r.makespan) / java1
    };
    let tm = |config| {
        let w = JbbTmWorkload {
            warehouse: TmWarehouse::new(config),
            txns_per_cpu: txns,
            seed: SEED,
            think: DEFAULT_THINK,
        };
        let r = sim::run_tm(cpus, &w);
        w.warehouse.check_invariants().unwrap();
        throughput(r.commits, r.makespan) / java1
    };
    let baseline = tm(TmConfig::Baseline);
    let open = tm(TmConfig::Open);
    let transactional = tm(TmConfig::Transactional);
    // The paper's ordering at high CPU counts.
    assert!(
        baseline < open,
        "Open must beat Baseline (baseline {baseline:.2}, open {open:.2})"
    );
    assert!(
        open < transactional,
        "Transactional must beat Open (open {open:.2}, transactional {transactional:.2})"
    );
    assert!(
        transactional > java,
        "Transactional must beat single-warehouse Java \
         (java {java:.2}, transactional {transactional:.2})"
    );
    // Baseline is crippled by whole-transaction conflicts.
    assert!(
        baseline < java,
        "Baseline should trail Java (java {java:.2}, baseline {baseline:.2})"
    );
}
