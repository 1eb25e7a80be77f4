#!/usr/bin/env bash
# pairs.sh <rev-a> <rev-b> [n=10]
#
# Runs n alternating-order pairs of `hostbench --all` on two revisions and
# reports each side's median and quartiles, the pairs b won, and the bound
# verdict per (workload, metric) — choosing-metrics §8. Both sides are
# measured with THIS checkout's benchmark code and BENCHMARK.json, laid
# over a `git archive` of each revision, so only the system under test
# differs. Each side is built once; the builds are alternated, never
# rebuilt.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
repo="$(cd "$here/.." && pwd)"
a="${1:?usage: pairs.sh <rev-a> <rev-b> [n=10]}"
b="${2:?usage: pairs.sh <rev-a> <rev-b> [n=10]}"
n="${3:-10}"
work="$here/out/pairs"
rm -rf "$work"
mkdir -p "$work/results"

for side in a b; do
  rev="$a"; [ "$side" = b ] && rev="$b"
  dir="$work/$side"
  mkdir -p "$dir"
  git -C "$repo" archive "$rev" | tar -x -C "$dir"
  rm -rf "$dir/benchmark"
  mkdir -p "$dir/benchmark"
  (cd "$here" && tar -c --exclude=./target --exclude=./out .) | tar -x -C "$dir/benchmark"
  cp "$repo/BENCHMARK.json" "$dir/BENCHMARK.json"
  (cd "$dir" && CARGO_TARGET_DIR="$dir/.bench_build" \
    cargo build --release --offline -q --manifest-path benchmark/Cargo.toml)
done

run() { # side index
  (cd "$work/$1" && ./.bench_build/release/hostbench --all --seed "$2" \
    --out "$work/results/$1-$2.json" >/dev/null)
}
for i in $(seq 1 "$n"); do
  if [ $((i % 2)) -eq 1 ]; then run a "$i"; run b "$i"; else run b "$i"; run a "$i"; fi
  echo "pair $i/$n done"
done

cd "$repo"
"$work/a/.bench_build/release/hostbench" compare \
  --a "$work"/results/a-*.json --b "$work"/results/b-*.json
