#!/usr/bin/env bash
# Run all four workloads untraced (end-to-end metrics) then traced
# (per-layer metrics) and collect the one-line summaries.
#
#   bench/run.sh [seed] [seconds]
#
# Full outputs land in bench/out/<workload>.<trace>.txt, the summaries in
# bench/out/summary.jsonl (one JSON object per run, with the workload,
# seed and trace flag added).
set -euo pipefail

seed="${1:-1}"
seconds="${2:-15}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$here/out"
mkdir -p "$out"

cargo build --release --offline --manifest-path "$here/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$here/target}/release/qb-perfbench"

: > "$out/summary.jsonl"
status=0
for trace in 0 1; do
  for workload in serve-warm cold-lookup score-heavy publish-churn; do
    log="$out/$workload.$trace.txt"
    echo "== $workload, seed $seed, $seconds s, trace $trace" >&2
    if ! "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" > "$log"; then
      echo "   FAILED (see $log)" >&2
      status=1
    fi
    summary="$(tail -n 1 "$log")"
    printf '{"workload": "%s", "seed": %s, "trace": %s, "run": %s}\n' \
      "$workload" "$seed" "$trace" "$summary" >> "$out/summary.jsonl"
  done
done
echo "summaries: $out/summary.jsonl" >&2
exit "$status"
