#!/usr/bin/env bash
# Vacuity lint for the performance trajectory: a per-layer probe that
# reads 0 on every workload shows nothing, so it fails here unless
# scripts/idle_probes.txt marks it idle and says why.
#
#   scripts/vacuity_lint.sh
#
# The row read is the committed BENCH_<n>.json (`git ls-files`) with the
# largest n. A probe is idle when its `median` in the row's `per_layer`
# block is 0 on each of the four workloads. Each line of
# scripts/idle_probes.txt is a probe name, whitespace and a one-line
# reason; `#` starts a comment. The list names exactly the idle probes:
# an idle probe it does not list, a listed probe with no reason, and a
# listed probe that reads nonzero somewhere (or that the row lacks) all
# fail, so a probe that comes alive leaves the list with the change that
# woke it.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

row="$(git ls-files 'BENCH_*.json' |
  sed -n 's/^BENCH_\([0-9][0-9]*\)\.json$/\1 &/p' |
  sort -n | tail -n 1 | cut -d' ' -f2)"
if [ -z "$row" ]; then
  echo "FAIL no committed BENCH_<n>.json" >&2
  exit 1
fi

idle="$(jq -r '
  [.workloads[] | .per_layer.metrics // {}] as $w
  | select(($w | length) == 4)
  | ($w | map(keys) | add | unique)[] as $probe
  | select(all($w[]; .[$probe].median == 0))
  | $probe' "$row")"

status=0
declare -A listed=()
while read -r probe reason; do
  case "$probe" in '' | '#'*) continue ;; esac
  listed[$probe]=1
  if [ -z "$reason" ]; then
    echo "FAIL $probe is listed idle without a reason" >&2
    status=1
  fi
  if ! grep -qxF "$probe" <<<"$idle"; then
    echo "FAIL $probe is listed idle but does not read 0 on all four workloads of $row" >&2
    status=1
  fi
done <scripts/idle_probes.txt

while read -r probe; do
  [ -n "$probe" ] || continue
  if [ -z "${listed[$probe]:-}" ]; then
    echo "FAIL $probe reads 0 on all four workloads of $row and is not listed idle" >&2
    status=1
  else
    echo "idle $probe"
  fi
done <<<"$idle"

if [ "$status" -eq 0 ]; then
  echo "ok   every probe of $row that reads 0 on all four workloads is listed idle"
fi
exit "$status"
