//! TAPE-style conflict analysis of the SPECjbb workload (paper §6.3).
//!
//! The paper: "Using techniques described in \[TAPE\], we were able to
//! identify several global counters such as the District.nextOrder ID
//! generator as the main sources of lost work due to conflicts." This
//! binary reproduces that methodology: it attributes every memory violation
//! in the simulator to the shared variable that caused it and prints the
//! top sources per configuration — showing the counters dominating the
//! Baseline, the maps dominating Open, and almost nothing left for
//! Transactional.

use jbb::{JbbTmWorkload, TmConfig, TmWarehouse, DEFAULT_THINK};

const CPUS: usize = 32;
const TXNS_PER_CPU: usize = 96;

fn analyze(config: TmConfig) {
    let w = JbbTmWorkload {
        warehouse: TmWarehouse::new(config),
        txns_per_cpu: TXNS_PER_CPU,
        seed: 0xC0FF_EE00,
        think: DEFAULT_THINK,
    };
    let r = sim::run_tm(CPUS, &w);
    println!(
        "\n{config:?}: {} commits, {} memory violations, {} semantic dooms, {} lost kcycles",
        r.commits,
        r.violations_memory,
        r.violations_semantic,
        r.lost_cycles / 1000
    );
    println!("  top conflict sources (lost kcycles):");
    for (name, lost) in r.top_conflict_sources(8) {
        println!("    {:>10}  {}", lost / 1000, name);
    }
}

fn main() {
    println!("Conflict attribution for single-warehouse SPECjbb2000 at {CPUS} CPUs");
    analyze(TmConfig::Baseline);
    analyze(TmConfig::Open);
    analyze(TmConfig::Transactional);
}
