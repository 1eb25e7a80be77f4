#!/usr/bin/env bash
# The benchmark workspace's own gate: clippy, unit tests, and a quick smoke
# of all seven workloads with verification on (timed and traced) plus the
# selftest that proves verification bites. Offline; the smoke itself runs
# in well under 20 s.
set -euo pipefail
cd "$(dirname "$0")"

cargo clippy --offline --all-targets -- -D warnings
cargo test --offline -q
cargo build --offline --release -q

bin="${CARGO_TARGET_DIR:-target}/release/hostbench"
start=$(date +%s)
"$bin" --all --quick --out out/quick.json >/dev/null
"$bin" --all --quick --traced --out out/quick-traced.json >/dev/null
"$bin" --selftest | grep '^selftest'
echo "smoke: all 7 workloads timed + traced + selftest in $(( $(date +%s) - start )) s"
echo "CHECK OK"
