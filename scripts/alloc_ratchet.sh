#!/usr/bin/env bash
# Allocation ratchet for the read path, the gossip rounds beside it and
# the write path: run four short qb-perfbench workloads and fail unless
# each is correct, simulated exactly the committed run and kept its
# host_allocs_per_op under a committed ceiling.
#
#   scripts/alloc_ratchet.sh
#
# Each workload's `sim_fingerprint` line (a hash over everything the run
# simulated) must equal a committed constant at seed 1, 1 s: serve-warm
# 059c87e708c069a0, cold-lookup a30562ceaa2f8154, score-heavy
# 0931b7eedaa0bea9, publish-churn 0858e038e76a9b58. A host-side change
# moves none of them; that check is what "every simulated byte in place"
# means. A modelling change updates the constant it moves and gives the
# reason here and in CHANGES.md.
#
# Allocation counts repeat to the digit at equal --seed and --seconds (the
# simulation is deterministic and the benchmark counts through its own
# global allocator), so unlike a host-clock number this gate has no noise
# to tolerate. The ceilings therefore sit ~10 % above the values measured
# at seed 1, 1 s: far enough that a change moving nothing never trips
# them, close enough that one allocation per operation creeping back into
# a hot path does — a page-name `String` per scored hit, a term `String`
# or result key per plan, a per-query list built only to be walked once,
# a boxed read machine per read, a request or response list per
# `search_request`, a list table per kernel call,
# a shard or result copied into a cache hit, a shard decoded again while
# some holder has it, a digest, delta or membership buffer per gossip
# exchange, a `Vec` per DHT walk, reply or store round, or on the write
# path a per-holder chunk copy, a per-bee analysis pass, a copied chain
# event, a tier key or page-analysis string per written term, a provider
# list per new root or a throwaway list per object put. Time spent without allocating (a SipHash per lookup, a
# full routing-table scan) is not a count: read the traced probes for
# that. CHANGES.md records each reading the ceilings were lowered from.
# Lower a ceiling when a change lowers the count; raise one only with the
# reason in CHANGES.md.
#
# publish-churn also has a peak-RSS ceiling at seed 1, 1 s. Peak RSS
# repeats to ~0.1 MiB at equal seed on one machine; a store that keeps
# what nothing names any more, or a chunk memo that keeps freed blocks,
# lands above it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
manifest="$here/../bench/Cargo.toml"

status=0
under() {
  local workload="$1" metric="$2" ceiling="$3" out="$4" value
  value="$(awk -v m="$metric" '$1 == m { print $2 }' <<<"$out")"
  if [ -z "$value" ] || ! awk -v a="$value" -v c="$ceiling" 'BEGIN { exit !(a < c) }'; then
    echo "FAIL $workload: $metric ${value:-missing} is not under $ceiling" >&2
    status=1
  else
    echo "ok   $workload: $metric $value < $ceiling"
  fi
}

check() {
  local workload="$1" fingerprint="$2" ceiling="$3" rss_ceiling="${4:-}" out simulated
  out="$(cargo run --release --offline --quiet --manifest-path "$manifest" -- \
    --workload "$workload" --seed 1 --seconds 1)"
  if ! tail -n 1 <<<"$out" | grep -q '"correct": true'; then
    echo "FAIL $workload: run is not correct" >&2
    status=1
    return
  fi
  simulated="$(awk '$1 == "sim_fingerprint" { print $2 }' <<<"$out")"
  if [ "$simulated" != "$fingerprint" ]; then
    echo "FAIL $workload: sim_fingerprint ${simulated:-missing} is not $fingerprint" >&2
    status=1
  else
    echo "ok   $workload: sim_fingerprint $simulated"
  fi
  under "$workload" host_allocs_per_op "$ceiling" "$out"
  if [ -n "$rss_ceiling" ]; then
    under "$workload" host_peak_rss_mb "$rss_ceiling" "$out"
  fi
}

check score-heavy 0931b7eedaa0bea9 5.5
check cold-lookup a30562ceaa2f8154 8.0
check serve-warm 059c87e708c069a0 8.5
check publish-churn 0858e038e76a9b58 168 34
exit "$status"
