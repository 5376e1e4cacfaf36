#!/usr/bin/env bash
# The full lint gate, same as CI: clippy, rustfmt, txlint self-test
# (includes the TX010 conflict-graph fixture and the --format json schema
# check), the synthesized-matrix oracle on its own, the workspace txlint
# scan + oracle, then rustdoc with warnings denied.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> txlint --self-test (rules incl. TX010 + JSON schema)"
cargo run -q -p txlint -- --self-test

echo "==> txlint --oracle (paper tables + synthesized matrices)"
cargo run -q -p txlint -- --oracle

echo "==> txlint workspace scan + oracle"
cargo run -q -p txlint --

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "lint gate: all clean"
