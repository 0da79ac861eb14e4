#!/usr/bin/env bash
# One row of the performance trajectory: run an already-built qb-perfbench
# over the four workloads and a seed list, untraced, plus one traced run per
# workload at the list's first seed, and write BENCH_<PR>.json at the root
# of the repository.
#
#   scripts/bench_row.sh BIN PR [SEEDS] [SECONDS]
#
# BIN is an already-built `qb-perfbench` binary (copy each side's
# `bench/target/release/qb-perfbench` aside after building it); the script
# builds no benchmark, so `bench/Cargo.lock` is never rewritten. PR is the
# number the row is filed under. SEEDS defaults to "1-3" (a range `a-b` or
# a space- or comma-separated list), SECONDS to 15 (the benchmark's run
# length). The row records the source revision as BENCH_ROW_REV when set,
# else as `git describe --always --dirty` of the checkout holding BIN
# (`unknown` outside one), and the core count as `nproc` reads it.
# BENCH_ROW_OUT, when set, is the path to write instead.
#
# Every run's summary line and `sim_fingerprint` go to the `bench_row` bin
# of crates/qb-bench, which writes per workload each end-to-end metric's
# median, q1 and q3 over the seeds and per seed the run's failed count
# and fingerprint, then checks that the file it wrote parses with all four
# workloads. Each traced run (`--trace 1`, same length) prints the
# per-layer probes instead of the end-to-end metrics; they land in the
# workload's `per_layer` block (`index.write_shard_us`,
# `publish.index_us_per_page`, `dht.lookup_us`, ...), and `bench_row
# --same-sim` reads none of them. The host numbers in a row are for
# reading, not gating: two rows compare only when taken on the same
# machine.
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 4 ]; then
  echo "usage: $0 BIN PR [SEEDS] [SECONDS]" >&2
  exit 2
fi
bin="$1" pr="$2" seeds="${3:-1-3}" seconds="${4:-15}"
if [ ! -x "$bin" ]; then
  echo "$0: $bin is not an executable qb-perfbench binary" >&2
  exit 2
fi
if [[ "$seeds" =~ ^([0-9]+)-([0-9]+)$ ]]; then
  seeds="$(seq "${BASH_REMATCH[1]}" "${BASH_REMATCH[2]}")"
else
  seeds="${seeds//,/ }"
fi

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${BENCH_ROW_OUT:-$root/BENCH_$pr.json}"
rev="${BENCH_ROW_REV:-$(git -C "$(dirname "$bin")" describe --always --dirty 2>/dev/null || echo unknown)}"
row() {
  cargo run --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p qb-bench --bin bench_row -- "$@"
}

workloads="serve-warm cold-lookup score-heavy publish-churn"
runs=""
# One run: WORKLOAD SEED [FLAGS...], appended to $runs as one input line
# of the bench_row bin (prefixed with $prefix).
run() {
  local workload="$1" seed="$2" log fingerprint
  shift 2
  echo "== $workload, seed $seed, $seconds s $*" >&2
  if ! log="$("$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" "$@")"; then
    echo "$0: $workload seed $seed $* exited nonzero" >&2
    exit 1
  fi
  fingerprint="$(awk '$1 == "sim_fingerprint" { print $2 }' <<<"$log")"
  if [ -z "$fingerprint" ]; then
    echo "$0: $workload seed $seed $* printed no sim_fingerprint" >&2
    exit 1
  fi
  runs+="$prefix$workload $seed $fingerprint $(tail -n 1 <<<"$log")"$'\n'
}

prefix=""
for seed in $seeds; do
  for workload in $workloads; do
    run "$workload" "$seed"
  done
done
prefix="traced "
first="$(awk '{ print $1; exit }' <<<"$seeds")"
for workload in $workloads; do
  run "$workload" "$first" --trace 1
done

row --pr "$pr" --rev "$rev" --seconds "$seconds" --cores "$(nproc)" <<<"$runs" >"$out"
row --check "$out"
