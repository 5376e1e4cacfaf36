#!/usr/bin/env bash
# Regenerate every experiment in EXPERIMENTS.md into results/.
# Usage: scripts/run_experiments.sh [results-dir]
set -euo pipefail
cd "$(dirname "$0")/.."
OUT="${1:-results}"
mkdir -p "$OUT"

echo "== building (release) =="
cargo build -p bench --release

for fig in fig1_testmap fig2_testsortedmap fig3_testcompound fig4_specjbb conflict_analysis; do
    echo "== $fig =="
    cargo run -p bench --release --bin "$fig" | tee "$OUT/$fig.txt"
done

for ab in ablation_segmented ablation_isempty ablation_putreturn ablation_eager; do
    echo "== $ab =="
    cargo bench -p bench --bench "$ab" | tee "$OUT/$ab.txt"
done

echo "== criterion microbenches =="
cargo bench -p bench --bench stm_ops -- --noplot | tee "$OUT/stm_ops.txt"
cargo bench -p bench --bench collection_overhead -- --noplot | tee "$OUT/collection_overhead.txt"

echo
echo "All outputs in $OUT/"
