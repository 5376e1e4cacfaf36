//! # bench — the figure/table harness
//!
//! One binary per figure of the paper's evaluation (§6):
//!
//! * `fig1_testmap` — TestMap (Figure 1)
//! * `fig2_testsortedmap` — TestSortedMap (Figure 2)
//! * `fig3_testcompound` — TestCompound (Figure 3)
//! * `fig4_specjbb` — single-warehouse SPECjbb2000 (Figure 4)
//!
//! plus the ablations discussed in the paper's text (`ablation_segmented`,
//! `ablation_isempty`, `ablation_putreturn`, `ablation_eager`) and the cost
//! ladder (`tests/cost_ladder.rs`), which counts what one warm operation
//! costs at each layer.
//!
//! Speedup convention matches the paper: each series at `p` CPUs is
//! normalized to the **1-CPU Java (lock) configuration** of the same
//! benchmark, by throughput: `speedup = (txns/cycle at p) / (txns/cycle of
//! 1-CPU Java)`.

pub mod testmap;

/// The CPU counts of the paper's x-axes.
pub const CPU_COUNTS: [usize; 6] = [1, 2, 4, 8, 16, 32];

/// A measured series: name plus speedup per CPU count.
pub struct Series {
    /// Legend label (matches the paper's figure legends).
    pub name: String,
    /// One row per CPU count.
    pub rows: Vec<SeriesRow>,
}

/// One measured point.
pub struct SeriesRow {
    /// Virtual CPU count.
    pub cpus: usize,
    /// Speedup vs the 1-CPU lock baseline.
    pub speedup: f64,
    /// Committed transactions.
    pub commits: u64,
    /// Violations (TM) or blocked kilocycles (locks) — context-dependent.
    pub conflicts: u64,
    /// Virtual-cycle makespan.
    pub makespan: u64,
}

/// Render the figure as an aligned text table (one column per series), the
/// way EXPERIMENTS.md records it.
pub fn print_figure(title: &str, series: &[Series]) {
    println!("\n== {title} ==");
    print!("{:>5}", "CPUs");
    for s in series {
        print!("  {:>28}", s.name);
    }
    println!();
    let rows = series[0].rows.len();
    for i in 0..rows {
        print!("{:>5}", series[0].rows[i].cpus);
        for s in series {
            let r = &s.rows[i];
            print!("  {:>17.2}x ({:>6} cf)", r.speedup, r.conflicts);
        }
        println!();
    }
}

/// Compute speedups for a set of `(cpus, commits, makespan, conflicts)`
/// measurements against a baseline throughput.
pub fn to_series(
    name: &str,
    baseline_throughput: f64,
    points: Vec<(usize, u64, u64, u64)>,
) -> Series {
    Series {
        name: name.to_string(),
        rows: points
            .into_iter()
            .map(|(cpus, commits, makespan, conflicts)| SeriesRow {
                cpus,
                speedup: (commits as f64 / makespan.max(1) as f64) / baseline_throughput,
                commits,
                conflicts,
                makespan,
            })
            .collect(),
    }
}

/// Throughput (txns per cycle) of one measurement.
pub fn throughput(commits: u64, makespan: u64) -> f64 {
    commits as f64 / makespan.max(1) as f64
}
