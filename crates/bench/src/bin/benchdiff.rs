//! benchdiff — counter-based regression gate between checked-in BENCH JSON
//! files: `benchdiff OLD.json NEW.json` gates one pair, and `benchdiff`
//! with no arguments gates every consecutive pair of the `BENCH_PR<n>.json`
//! reports in the current directory, in numeric order of `n`.
//!
//! Every `BENCH_PRn.json` in this repo is hand-printed JSON whose leaves
//! are `"name": number` pairs. Rather than vendoring a JSON parser for a
//! CI gate, this bin lexically collects those pairs (summing duplicates,
//! so per-row counters aggregate across thread counts and workloads) and
//! compares the **protocol counters** that appear in both files.
//!
//! ns/op numbers are deliberately NOT gated: the bench hosts are 1-CPU
//! containers where run-to-run spread has been measured at ~38%, so a
//! wall-clock gate would be a coin flip. Counters — commits, lock spins,
//! lane entries, dooms — are deterministic for a fixed workload shape and
//! are where a protocol regression actually shows up.
//!
//! Rules:
//! * A contention counter present in both files may not grow past
//!   `old * RATIO_LIMIT + ABS_SLACK` (slack absorbs 0 → tiny-number noise).
//! * An amortization leaf present in the NEW file may not exceed its
//!   absolute ceiling — these are per-transaction protocol counts whose
//!   correct value is a workload constant (e.g. a repeat-key read txn runs
//!   zero open-nested commits), so no old-file baseline is needed.
//! * Successive PRs often measure *different* benches; if the files share
//!   no counter keys the gate passes with a note — it is a ratchet where
//!   comparable, not a straitjacket.
//!
//! Exit status: 0 clean or incomparable, 1 regression, 2 usage/IO error
//! (with several pairs, the worst status of any pair).

use std::path::Path;
use std::process::ExitCode;

/// Counters gated when present in both files. Throughput counters like
/// `commits` are reported but not gated (workload sizes differ across PRs).
const GATED: [&str; 4] = [
    "var_lock_spins",
    "stripe_lock_spins",
    "global_stripe_entries",
    "dooms_issued",
];
const REPORTED: [&str; 3] = ["commits", "lane_entries", "lane_free_commits"];
const RATIO_LIMIT: f64 = 2.0;
const ABS_SLACK: f64 = 100.0;

/// Absolute ceilings on per-transaction amortization leaves (PR 8). The
/// lexical collector SUMS a leaf across rows; the sweep emits each
/// `repeat_*` leaf for 6 cells (ops_per_txn 1/16/64 × two backends), so a
/// per-cell budget of ≤2 open commits and ≤0.5 excess acquisitions gives
/// the totals below. Checked against the NEW file only.
/// PR 9 adds the snapshot-read guarantees: aborts and semantic-lock
/// acquisitions inside snapshot windows are zero **by construction** (not
/// a tuning target), and chain-truncation fallbacks are a bounded escape
/// hatch — each leaf appears once as a whole-file summary in
/// BENCH_PR9.json, so no cross-row summing slack is needed.
/// PR 10 gates the dimensional metrics layer: the warm emission loop must
/// allocate exactly zero times (`metrics_alloc_count` — a discipline, not
/// a tuning target), and the enabled/disabled ns-per-txn ratio, SUMMED by
/// the collector across the 4 thread rows, must stay under 12.0 (avg 3×
/// per row — generous, because 1-CPU wall-clock carries ~38% noise; the
/// real on-cost is a slab increment per site).
const CEILINGS: [(&str, f64); 7] = [
    ("repeat_open_commits_per_txn", 12.0),
    ("repeat_excess_lock_acquisitions_per_txn", 3.0),
    ("snapshot_abort_count", 0.0),
    ("snapshot_lock_acquisitions", 0.0),
    ("snapshot_fallback_rate", 0.05),
    ("metrics_alloc_count", 0.0),
    ("metrics_on_off_ratio", 12.0),
];

/// Collect every `"key": <number>` pair in `src`, summing repeats.
fn numeric_leaves(src: &str) -> Vec<(String, f64)> {
    let mut out: Vec<(String, f64)> = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'"' {
            i += 1;
            continue;
        }
        let Some(close) = src[i + 1..].find('"') else {
            break;
        };
        let key = &src[i + 1..i + 1 + close];
        i += close + 2;
        // Skip whitespace; a key is a string followed by ':'.
        let rest = src[i..].trim_start();
        let Some(after_colon) = rest.strip_prefix(':') else {
            continue;
        };
        let val = after_colon.trim_start();
        let end = val
            .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+'))
            .unwrap_or(val.len());
        if end == 0 {
            continue;
        }
        if let Ok(n) = val[..end].parse::<f64>() {
            match out.iter_mut().find(|(k, _)| k == key) {
                Some((_, sum)) => *sum += n,
                None => out.push((key.to_string(), n)),
            }
        }
    }
    out
}

fn lookup(leaves: &[(String, f64)], key: &str) -> Option<f64> {
    leaves.iter().find(|(k, _)| k == key).map(|(_, v)| *v)
}

/// `n` of a `BENCH_PR<n>.json` file name, or `None` for any other name.
fn report_number(name: &str) -> Option<u32> {
    let digits = name.strip_prefix("BENCH_PR")?.strip_suffix(".json")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Every consecutive pair of the `BENCH_PR<n>.json` names in `names`, in
/// numeric order of `n` (so PR9 precedes PR10).
fn consecutive_pairs(names: impl IntoIterator<Item = String>) -> Vec<(String, String)> {
    let mut reports: Vec<(u32, String)> = names
        .into_iter()
        .filter_map(|name| report_number(&name).map(|n| (n, name)))
        .collect();
    reports.sort();
    reports
        .windows(2)
        .map(|w| (w[0].1.clone(), w[1].1.clone()))
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let pairs = match &args[..] {
        [] => {
            let names = match std::fs::read_dir(".") {
                Ok(dir) => dir
                    .filter_map(|e| e.ok()?.file_name().into_string().ok())
                    .collect::<Vec<_>>(),
                Err(e) => {
                    eprintln!("benchdiff: cannot list the current directory: {e}");
                    return ExitCode::from(2);
                }
            };
            let pairs = consecutive_pairs(names);
            if pairs.is_empty() {
                println!(
                    "benchdiff: fewer than two BENCH_PR<n>.json reports here; nothing to gate"
                );
            }
            pairs
        }
        [old, new] => vec![(old.clone(), new.clone())],
        _ => {
            eprintln!("usage: benchdiff [OLD.json NEW.json]");
            return ExitCode::from(2);
        }
    };
    let status = pairs
        .iter()
        .map(|(old, new)| gate_pair(Path::new(old), Path::new(new)))
        .max()
        .unwrap_or(0);
    ExitCode::from(status)
}

/// Gate one pair of reports; returns the exit status for it.
fn gate_pair(old_path: &Path, new_path: &Path) -> u8 {
    let read = |p: &Path| match std::fs::read_to_string(p) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("benchdiff: cannot read {}: {e}", p.display());
            None
        }
    };
    let (Some(old_src), Some(new_src)) = (read(old_path), read(new_path)) else {
        return 2;
    };
    let old = numeric_leaves(&old_src);
    let new = numeric_leaves(&new_src);

    println!(
        "benchdiff: {} -> {}",
        old_path.display(),
        new_path.display()
    );
    let mut compared = 0;
    let mut regressions = 0;
    for key in GATED {
        let (Some(o), Some(n)) = (lookup(&old, key), lookup(&new, key)) else {
            continue;
        };
        compared += 1;
        let limit = o * RATIO_LIMIT + ABS_SLACK;
        let verdict = if n > limit { "REGRESSION" } else { "ok" };
        if n > limit {
            regressions += 1;
        }
        println!("  [gated]    {key}: {o} -> {n} (limit {limit:.0}) {verdict}");
    }
    for (key, ceiling) in CEILINGS {
        let Some(n) = lookup(&new, key) else {
            continue;
        };
        compared += 1;
        let verdict = if n > ceiling { "REGRESSION" } else { "ok" };
        if n > ceiling {
            regressions += 1;
        }
        println!("  [ceiling]  {key}: {n} (ceiling {ceiling}) {verdict}");
    }
    for key in REPORTED {
        if let (Some(o), Some(n)) = (lookup(&old, key), lookup(&new, key)) {
            println!("  [reported] {key}: {o} -> {n}");
        }
    }
    if compared == 0 {
        println!(
            "  no shared protocol counters (the two PRs measured different benches); \
             nothing to gate — pass"
        );
        return 0;
    }
    if regressions > 0 {
        eprintln!("benchdiff: {regressions} counter regression(s)");
        return 1;
    }
    println!("  {compared} gated counter(s) within limits");
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leaves_sum_duplicates_and_skip_strings() {
        let src = r#"{"a": 1, "note": "x: 9", "nested": {"a": 2.5, "b": -3}}"#;
        let leaves = numeric_leaves(src);
        assert_eq!(lookup(&leaves, "a"), Some(3.5));
        assert_eq!(lookup(&leaves, "b"), Some(-3.0));
        assert_eq!(lookup(&leaves, "note"), None);
    }

    #[test]
    fn reports_pair_up_in_numeric_order() {
        let names = [
            "BENCH_PR10.json",
            "README.md",
            "BENCH_PR9.json",
            "BENCH_PR2.json",
        ]
        .into_iter()
        .chain(["BENCH_PRx.json", "BENCH_PR3.json.bak", "BENCH_PR.json"])
        .map(String::from);
        let pairs = consecutive_pairs(names);
        let expect = [
            ("BENCH_PR2.json", "BENCH_PR9.json"),
            ("BENCH_PR9.json", "BENCH_PR10.json"),
        ];
        assert_eq!(pairs, expect.map(|(a, b)| (a.to_string(), b.to_string())));
        assert!(consecutive_pairs(["BENCH_PR7.json".to_string()]).is_empty());
    }

    #[test]
    fn ceiling_leaves_sum_across_sweep_cells() {
        let src = r#"[
            {"repeat_open_commits_per_txn": 0.0},
            {"repeat_open_commits_per_txn": 1.5},
            {"repeat_excess_lock_acquisitions_per_txn": 0.0}
        ]"#;
        let leaves = numeric_leaves(src);
        assert_eq!(lookup(&leaves, "repeat_open_commits_per_txn"), Some(1.5));
        let (key, ceiling) = CEILINGS[0];
        assert!(lookup(&leaves, key).unwrap() <= ceiling);
    }
}
