#!/usr/bin/env bash
# Local smoke of the measured surfaces: the repository benchmark's quick
# pass, then the `txtop` reporter end to end. Performance numbers come from
# the benchmark (BENCHMARK.json, crates/bench/src/bin/benchmark/README.md);
# this script only checks that everything runs and validates.
set -euo pipefail
cd "$(dirname "$0")/.."

# All five workloads, exit non-zero on any failed check. Built the way
# BENCHMARK.json runs it: the standalone package through its own manifest.
cargo run --release --quiet --offline \
    --manifest-path crates/bench/src/bin/benchmark/Cargo.toml -- --quick

# Smoke the provenance reporter end to end: traced contended-map soak,
# export, re-parse and structurally validate the exported trace. The second
# soak repeats one key per transaction so the txn-local lock cache is
# exercised under tracing and contention.
cargo build -q --release -p bench --bin txtop
./target/release/txtop --soak --threads 4 --txns 300 --export-json target/txtop_trace.json
./target/release/txtop --validate target/txtop_trace.json
./target/release/txtop --soak --threads 4 --txns 300 --repeat-keys --export-json target/txtop_repeat_trace.json
./target/release/txtop --validate target/txtop_repeat_trace.json

# Dimensional metrics end to end: a contended soak under the metrics layer
# with the flight recorder armed (renders the per-class/per-stripe doom-rate
# table and the latency percentiles), then the Prometheus validation pass —
# two cumulative scrapes with soak activity between must parse and stay
# monotone series-by-series.
./target/release/txtop --metrics --threads 4 --txns 300
./target/release/txtop --metrics --validate --threads 2 --txns 200
