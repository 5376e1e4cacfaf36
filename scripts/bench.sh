#!/usr/bin/env bash
# Checked-in scaling benches. Each writes its JSON report to the repo root
# (checked in alongside the code so the numbers travel with the PR):
#   BENCH_PR2.json — commit-path scaling (PR 2): sharded per-TVar commit vs
#                    the reconstructed serialized baseline.
#   BENCH_PR3.json — collection hot-path scaling (PR 3): striped semantic
#                    lock tables vs the single-table baseline.
#   BENCH_PR5.json — tracing overhead (PR 5): the conflict-provenance trace
#                    layer off (must match PR4's sharded commit numbers
#                    within host noise) vs on vs on-with-overflowing-rings.
#   BENCH_PR8.json — boosted vs TVar map backends + amortization sweep
#                    (PR 8): the PR 7 uncontended workloads plus read-only
#                    transactions at ops_per_txn 1/16/64 with repeat vs
#                    distinct keys, reporting per-txn open-commit, flattened-
#                    read, stripe-acquisition, and lock-cache counters.
#   BENCH_PR9.json — snapshot vs validated reads (PR 9): the same read-only
#                    workload under atomic_read and atomic at 1/2/4/8
#                    threads, plus the mixed abort-rate-delta cell (size-
#                    changing writer vs whole-map observers). Ceiling-gated:
#                    snapshot_abort_count = 0, snapshot_lock_acquisitions
#                    = 0, snapshot_fallback_rate bounded.
#   BENCH_PR10.json — dimensional metrics overhead (PR 10): disjoint-RMW
#                    ns/txn with metrics off vs on at 1/2/4/8 threads, a
#                    counting-allocator emission loop, and p50/p99 commit
#                    latency per backend (TVar RMW vs boosted map) from the
#                    enabled commit-latency histogram. Ceiling-gated:
#                    metrics_alloc_count = 0 and the summed on/off ratio.
#                    As everywhere in this file: 1-CPU container, ns/op
#                    medians carry ~38% run-to-run noise — counters and
#                    percentile bucket bounds are the stable signals,
#                    wall-clock is context.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo bench -q -p bench --bench commit_scaling >BENCH_PR2.json
cat BENCH_PR2.json

cargo bench -q -p bench --bench collection_scaling >BENCH_PR3.json
cat BENCH_PR3.json

cargo bench -q -p bench --bench trace_overhead >BENCH_PR5.json
cat BENCH_PR5.json

cargo bench -q -p bench --bench boosted_vs_tvar >BENCH_PR8.json
cat BENCH_PR8.json

cargo bench -q -p bench --bench snapshot_reads >BENCH_PR9.json
cat BENCH_PR9.json

cargo bench -q -p bench --bench metrics_overhead >BENCH_PR10.json
cat BENCH_PR10.json

# Counter-based regression gate over every consecutive pair of BENCH_PR<n>.json
# reports (numeric order): each report's protocol counters may not blow past
# the previous one's where the two are comparable, and the amortization
# sweep's repeat_* per-txn leaves must stay under their absolute ceilings
# (ns/op is never gated — 1-CPU hosts are too noisy for wall-clock gates).
cargo run -q --release -p bench --bin benchdiff

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
