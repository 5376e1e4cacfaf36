//! `benchmark`: the repository's one benchmark. Five named workloads run
//! against the public APIs of `stm`, `txcollections`, `txstruct`, `jbb` and
//! `sim`; every round checks its output; untraced rounds give the
//! end-to-end metrics and a traced round the per-layer ones. README.md in
//! this directory says what each workload and metric is for.
//!
//! ```text
//! benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//!           [--quick] [--repeat K]
//! ```
//!
//! Every round runs in a child process of this binary (fresh global stats,
//! epoch slots and metrics shards, and its own peak RSS). The last line of
//! standard output for one workload is a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

mod load;
mod measure;
mod spans;
mod workloads;

use load::{Round, RoundOut};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::WORKLOADS;

/// End-to-end metrics, each the median over the untraced rounds, except
/// `setup_s`, the fastest of all the rounds' state builds. Throughput
/// and latency are not among them: on the reference host their run-to-run
/// spread exceeds any bound worth gating on (README.md), so they are
/// context, as the `e2e.*` metrics of the traced pass.
const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("attempts_per_txn", "attempts/txn"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced pass, named by module. The `e2e.*` ones
/// come from its untraced round, the rest from its traced round. A workload
/// that does not exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 58] = [
    ("e2e.txn_per_s", "txn/s"),
    ("e2e.txn_p50_us", "us"),
    ("e2e.txn_p99_us", "us"),
    ("e2e.read_p50_us", "us"),
    ("e2e.read_p99_us", "us"),
    ("stm.runtime.begin_ns.p50", "ns"),
    ("stm.runtime.attempts_per_commit", "attempts/commit"),
    ("stm.runtime.wasted_share", "share"),
    ("stm.commit_ns.p50", "ns"),
    ("stm.commit_ns.p99", "ns"),
    ("stm.clock.lane_entries_per_commit", "1/commit"),
    ("stm.clock.var_lock_spins_per_commit", "1/commit"),
    ("stm.metrics.commit_latency_ns.p50", "ns"),
    ("stm.metrics.commit_latency_ns.p99", "ns"),
    ("stm.txn.read_invalid_per_commit", "1/commit"),
    ("stm.txn.open_flattened_per_commit", "1/commit"),
    ("stm.txn.open_commits_per_commit", "1/commit"),
    ("stm.epoch.fallbacks_per_10k_reads", "1/10k-reads"),
    ("stm.epoch.read_max_ms", "ms"),
    ("stm.tvar.chain_reclaimed_per_commit", "1/commit"),
    ("stm.metrics.snapshot_read_ns.p99", "ns"),
    ("core.locks.acquisitions_per_commit", "1/commit"),
    ("core.kernel.cache_hit_share", "share"),
    ("core.locks.stripe_blocked_per_commit", "1/commit"),
    ("core.locks.global_stripe_entries_per_commit", "1/commit"),
    ("core.locks.dooms_per_commit", "1/commit"),
    ("stm.metrics.sem_lock_wait_ns.p99", "ns"),
    ("core.map.get_ns.p50", "ns"),
    ("core.map.put_ns.p50", "ns"),
    ("core.map.remove_ns.p50", "ns"),
    ("core.map.snapshot_get_ns.p50", "ns"),
    ("txstruct.boosted.op_ns.p50", "ns"),
    ("core.map.boosted_over_raw", "x"),
    ("jbb.new_order_us.p50", "us"),
    ("jbb.new_order_us.p99", "us"),
    ("jbb.payment_us.p50", "us"),
    ("jbb.payment_us.p99", "us"),
    ("jbb.order_status_us.p50", "us"),
    ("jbb.order_status_us.p99", "us"),
    ("jbb.delivery_us.p50", "us"),
    ("jbb.delivery_us.p99", "us"),
    ("jbb.stock_level_us.p50", "us"),
    ("jbb.stock_level_us.p99", "us"),
    ("sim.fig1.speedup_32", "x"),
    ("sim.fig2.speedup_32", "x"),
    ("sim.fig3.speedup_32", "x"),
    ("sim.fig4.speedup_32", "x"),
    ("sim.fig4.speedup_8", "x"),
    ("sim.fig1.violations_32", "count"),
    ("sim.fig2.violations_32", "count"),
    ("sim.fig3.violations_32", "count"),
    ("sim.fig4.violations_32", "count"),
    ("sim.fig4.lost_cycle_share_32", "share"),
    ("sim.host_s", "s"),
    ("bench.cpu_share", "share"),
    ("bench.trace_overhead", "share"),
    ("bench.gen_lag_us.p99", "us"),
    ("bench.spans_dropped", "count"),
];

/// Untraced rounds per workload; the end-to-end metrics are their medians.
const ROUNDS: usize = 5;

struct Args {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    repeat: usize,
    /// Set in a child process: run this one round and print it raw.
    child_round: Option<u64>,
}

const USAGE: &str = "usage: benchmark [--workload point|long_mixed|jbb|snapshot_scan|paper_sim] \
[--seed N] [--seconds S] [--trace 0|1] [--quick] [--repeat K]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: WORKLOADS.to_vec(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        quick: false,
        repeat: 1,
        child_round: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                let w = WORKLOADS
                    .iter()
                    .find(|&&k| k == w)
                    .ok_or(format!("unknown workload {w}"))?;
                a.workloads = vec![w];
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds > 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => a.quick = true,
            "--repeat" => {
                a.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if a.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--child" => {
                a.child_round = Some(value()?.parse().map_err(|e| format!("--child: {e}"))?)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// The rounds one pass runs: (round number, traced, measured seconds). A
/// traced pass runs an untraced round first, to measure what tracing costs.
fn plan(a: &Args) -> Vec<(u64, bool, f64)> {
    let rounds: Vec<bool> = if a.traced {
        vec![false, true]
    } else {
        vec![false; ROUNDS]
    };
    // --quick does a thousandth of the work.
    let scale = if a.quick { 1000.0 } else { 1.0 };
    let secs = a.seconds / rounds.len() as f64 / scale;
    (0..).zip(rounds).map(|(i, t)| (i, t, secs)).collect()
}

/// Run one round in a child process of this binary and read back its
/// result.
fn run_child(
    a: &Args,
    workload: &str,
    round: u64,
    traced: bool,
    secs: f64,
) -> Result<RoundOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", &round.to_string(), "--workload", workload])
        .args([
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &secs.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if a.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("starting the {workload} round: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{workload} round {round} exited with {}",
            output.status
        ));
    }
    parse_round(&String::from_utf8_lossy(&output.stdout))
}

/// The child's side of `run_child`: one `key value` line per field.
fn print_round(out: &RoundOut) {
    for (name, value) in &out.metrics {
        println!("metric {name} {value}");
    }
    println!("attempted {}", out.attempted);
    println!("failed {}", out.failed);
    for line in &out.context {
        println!("context {line}");
    }
}

fn parse_round(text: &str) -> Result<RoundOut, String> {
    let mut out = RoundOut::default();
    for line in text.lines() {
        let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
        let bad = |e: std::num::ParseIntError| format!("bad line {line:?}: {e}");
        match key {
            "metric" => {
                let (name, v) = rest.split_once(' ').ok_or(format!("bad line {line:?}"))?;
                let v: f64 = v.parse().map_err(|e| format!("bad line {line:?}: {e}"))?;
                out.set(name, v);
            }
            "attempted" => out.attempted = rest.parse().map_err(bad)?,
            "failed" => out.failed = rest.parse().map_err(bad)?,
            "context" => out.context.push(rest.to_string()),
            _ => return Err(format!("unexpected line from a round: {line:?}")),
        }
    }
    Ok(out)
}

/// One workload's result over the rounds of a pass.
struct Report {
    workload: &'static str,
    traced: bool,
    /// Reported metrics with their units, in declaration order.
    metrics: Vec<(&'static str, &'static str, f64)>,
    attempted: u64,
    failed: u64,
    rounds: Vec<RoundOut>,
}

impl Report {
    /// Combine rounds in `plan` order: untraced medians, or in a traced
    /// pass the untraced round's `e2e.*` timings, the traced round's layers,
    /// and what needs both rounds.
    fn new(workload: &'static str, traced: bool, rounds: Vec<RoundOut>) -> Result<Report, String> {
        let get = |r: &RoundOut, name: &str| {
            r.metrics
                .get(name)
                .copied()
                .ok_or(format!("{workload}: a round did not report {name}"))
        };
        let mut metrics = Vec::new();
        if traced {
            let (base, t) = (&rounds[0], &rounds[1]);
            for (name, unit) in PER_LAYER {
                if let Some(own) = name.strip_prefix("e2e.") {
                    metrics.push((name, unit, base.metrics.get(own).copied().unwrap_or(0.0)));
                    continue;
                }
                let v = match name {
                    "bench.trace_overhead" => 1.0 - get(t, "txn_per_s")? / get(base, "txn_per_s")?,
                    "core.map.boosted_over_raw" => {
                        let raw = t
                            .metrics
                            .get("txstruct.boosted.op_ns.p50")
                            .copied()
                            .unwrap_or(0.0);
                        if raw > 0.0 {
                            get(base, "txn_p50_us")? * 1e3 / raw
                        } else {
                            0.0
                        }
                    }
                    _ => t.metrics.get(name).copied().unwrap_or(0.0),
                };
                metrics.push((name, unit, v));
            }
        } else {
            for (name, unit) in END_TO_END {
                let values = rounds
                    .iter()
                    .map(|r| get(r, name))
                    .collect::<Result<Vec<_>, _>>()?;
                // Each round reports its fastest build; see `load::set_up`.
                let v = if name == "setup_s" {
                    values.iter().copied().fold(f64::INFINITY, f64::min)
                } else {
                    measure::median(&values)
                };
                metrics.push((name, unit, v));
            }
        }
        if let Some((name, _, v)) = metrics.iter().find(|m| !m.2.is_finite()) {
            return Err(format!("{workload}: {name} is {v}"));
        }
        Ok(Report {
            workload,
            traced,
            metrics,
            attempted: rounds.iter().map(|r| r.attempted).sum(),
            failed: rounds.iter().map(|r| r.failed).sum(),
            rounds,
        })
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn print(&self, seed: u64) {
        let kind = if self.traced { "traced" } else { "untraced" };
        println!("== {} ({kind}, seed {seed}) ==", self.workload);
        for (i, r) in self.rounds.iter().enumerate() {
            for line in &r.context {
                println!("  round {i}: {line}");
            }
        }
        for (name, unit, v) in &self.metrics {
            let per_round: Vec<String> = self
                .rounds
                .iter()
                .filter_map(|r| r.metrics.get(*name).map(|x| format!("{x:.6}")))
                .collect();
            println!(
                "  {name:<44} {v:>16.6} {unit:<15} rounds [{}]",
                per_round.join(", ")
            );
        }
        println!("{}", self.json());
    }
}

/// Run every round of every selected workload, rounds interleaved across
/// workloads (A B C A B C ...), and combine them.
fn run_pass(a: &Args) -> Result<Vec<Report>, String> {
    let plan = plan(a);
    let mut rounds: Vec<Vec<RoundOut>> = a.workloads.iter().map(|_| Vec::new()).collect();
    for &(round, traced, secs) in &plan {
        for (w, out) in a.workloads.iter().zip(rounds.iter_mut()) {
            out.push(run_child(a, w, round, traced, secs)?);
        }
    }
    a.workloads
        .iter()
        .zip(rounds)
        .map(|(w, r)| Report::new(w, a.traced, r))
        .collect()
}

/// `--repeat K`: each metric's median, range and quartile spread over K
/// passes, to judge which metrics are steady enough to gate on.
fn repeat(a: &Args) -> Result<bool, String> {
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for k in 0..a.repeat {
        eprintln!("pass {} of {}", k + 1, a.repeat);
        for report in run_pass(a)? {
            ok &= report.failed == 0;
            for (name, _, v) in &report.metrics {
                values.entry((report.workload, name)).or_default().push(*v);
            }
        }
    }
    println!(
        "{:<14} {:<44} {:>14} {:>14} {:>14} {:>8}",
        "workload", "metric", "median", "min", "max", "spread"
    );
    for ((w, name), v) in &values {
        let med = measure::median(v);
        let (q1, q3) = measure::quartiles(v);
        let spread = if med == 0.0 {
            0.0
        } else {
            (q3 - q1) / med.abs()
        };
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!("{w:<14} {name:<44} {med:>14.6} {min:>14.6} {max:>14.6} {spread:>8.4}");
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(round) = a.child_round {
        let r = Round {
            seed: a.seed,
            round,
            secs: a.seconds,
            traced: a.traced,
            quick: a.quick,
            span_dir: Some(PathBuf::from("target/benchmark")),
        };
        print_round(&workloads::run(a.workloads[0], &r));
        return ExitCode::SUCCESS;
    }
    let result = if a.repeat > 1 {
        repeat(&a)
    } else {
        run_pass(&a).map(|reports| {
            for r in &reports {
                r.print(a.seed);
            }
            reports.iter().all(|r| r.failed == 0)
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a correctness check failed (see FAILED lines above)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every metric object in one section of
    /// `BENCHMARK.json`, read lexically (no JSON crate is vendored).
    fn declared(json: &str, section: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{section}\""))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {section}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\": \"")).expect("field present") + key.len() + 5;
            obj[at..at + obj[at..].find('"').expect("closing quote")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    /// The value printed for `name` with `unit`, if any.
    fn printed(json: &str, name: &str, unit: &str) -> Option<f64> {
        let key = format!("\"{name}\": {{\"value\": ");
        let at = json.find(&key)? + key.len();
        let (num, rest) = json[at..].split_once(", ")?;
        rest.starts_with(&format!("\"unit\": \"{unit}\"}}"))
            .then(|| num.parse().ok())
            .flatten()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../../../../BENCHMARK.json");
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared(json, "end_to_end"), own(&END_TO_END));
        assert_eq!(declared(json, "per_layer"), own(&PER_LAYER));
    }

    /// `--quick` over every workload, untraced and traced, in this process:
    /// every declared metric is printed with its unit and a finite value,
    /// and every correctness check passes.
    #[test]
    fn quick_run_prints_every_declared_metric() {
        let json = include_str!("../../../../../BENCHMARK.json");
        for traced in [false, true] {
            let a = Args {
                workloads: WORKLOADS.to_vec(),
                seed: 7,
                seconds: 10.0,
                traced,
                quick: true,
                repeat: 1,
                child_round: None,
            };
            for w in WORKLOADS {
                let rounds = plan(&a)
                    .into_iter()
                    .map(|(round, traced, secs)| {
                        let r = Round {
                            seed: a.seed,
                            round,
                            secs,
                            traced,
                            quick: true,
                            span_dir: None,
                        };
                        workloads::run(w, &r)
                    })
                    .collect();
                let report = Report::new(w, traced, rounds).expect("every metric reported");
                assert_eq!(report.failed, 0, "{w}: {:?}", report.rounds[0].context);
                let line = report.json();
                let section = if traced { "per_layer" } else { "end_to_end" };
                for (name, unit) in declared(json, section) {
                    let v = printed(&line, &name, &unit)
                        .unwrap_or_else(|| panic!("{w}: {name} [{unit}] missing from {line}"));
                    // End-to-end metrics are never 0: each is compared as
                    // a share of the parent commit's value.
                    assert!(v.is_finite() && (traced || v > 0.0), "{w}: {name} = {v}");
                }
            }
        }
    }
}
