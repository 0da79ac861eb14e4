#!/usr/bin/env bash
# Failed operations per seed, two qb-perfbench builds side by side, and
# whether the two simulated the same run.
#
#   scripts/failed_by_seed.sh PARENT_BIN CHANGE_BIN [WORKLOAD] [SEEDS] [SECONDS]
#
# PARENT_BIN and CHANGE_BIN are already-built `qb-perfbench` binaries
# (copy each side's `bench/target/release/qb-perfbench` aside after
# building it); the script builds nothing, so `bench/Cargo.lock` is never
# rewritten. WORKLOAD defaults to serve-warm, SEEDS to "1-10" (a range
# `a-b` or a space- or comma-separated list), SECONDS to 15 (the
# benchmark's run length). Each seed runs the parent and then the change,
# and the table gives each side's `failed` count (the summary line's) with
# the totals and medians over the seeds, and in its last column whether
# the two runs printed the same `sim_fingerprint` (`same`) or not
# (`MOVED`). A host-only change shows `same` on every seed: that is its
# proof of byte-identity over the seed list.
#
# A modelling change that touches a workload with load shedding re-rolls
# which arrivals shed, so its failed count can move by an order of
# magnitude on one seed (a shed storm) while the total over many seeds
# barely moves. Reading the whole column tells a storm seed from a
# systematic change; the benchmark's median over its own seeds does not.
set -euo pipefail

if [ "$#" -lt 2 ] || [ "$#" -gt 5 ]; then
  echo "usage: $0 PARENT_BIN CHANGE_BIN [WORKLOAD] [SEEDS] [SECONDS]" >&2
  exit 2
fi
parent="$1" change="$2" workload="${3:-serve-warm}" seeds="${4:-1-10}" seconds="${5:-15}"
for bin in "$parent" "$change"; do
  if [ ! -x "$bin" ]; then
    echo "$0: $bin is not an executable qb-perfbench binary" >&2
    exit 2
  fi
done
if [[ "$seeds" =~ ^([0-9]+)-([0-9]+)$ ]]; then
  seeds="$(seq "${BASH_REMATCH[1]}" "${BASH_REMATCH[2]}")"
else
  seeds="${seeds//,/ }"
fi

# One run's `failed` count, read from its last (summary) line, and its
# `sim_fingerprint`, as `FAILED FINGERPRINT` (`-` for either one missing).
run() {
  local out failed fingerprint
  out="$("$1" --workload "$workload" --seed "$2" --seconds "$seconds")"
  failed="$(tail -n 1 <<<"$out" | sed -n 's/.*"failed": \([0-9][0-9]*\).*/\1/p')"
  fingerprint="$(awk '$1 == "sim_fingerprint" { print $2 }' <<<"$out")"
  echo "${failed:--} ${fingerprint:--}"
}

median() {
  sort -n | awk '{ v[NR] = $1 } END {
    if (NR == 0) { print "-"; exit }
    if (NR % 2) print v[(NR + 1) / 2]; else print (v[NR / 2] + v[NR / 2 + 1]) / 2
  }'
}

printf '%s, %s s\n%-8s %8s %8s  %s\n' "$workload" "$seconds" seed parent change sim
parents="" changes=""
for seed in $seeds; do
  read -r p p_sim <<<"$(run "$parent" "$seed")"
  read -r c c_sim <<<"$(run "$change" "$seed")"
  if [ "$p" = - ] || [ "$c" = - ]; then
    echo "$0: seed $seed printed no summary line" >&2
    exit 1
  fi
  if [ "$p_sim" = "$c_sim" ] && [ "$p_sim" != - ]; then sim=same; else sim=MOVED; fi
  printf '%-8s %8s %8s  %s\n' "$seed" "$p" "$c" "$sim"
  parents+="$p"$'\n' changes+="$c"$'\n'
done
total() { awk '{ s += $1 } END { print s + 0 }'; }
printf '%-8s %8s %8s\n' total "$(total <<<"$parents")" "$(total <<<"$changes")"
printf '%-8s %8s %8s\n' median "$(grep . <<<"$parents" | median)" "$(grep . <<<"$changes" | median)"
