#!/usr/bin/env bash
# Size ratchet for library code: fail when a source file has grown past
# the ceiling, so the multi-thousand-line files that were split along
# their seams (engine.rs, fleet.rs) stay split.
#
#   scripts/size_ratchet.sh
#
# A file's size is its count of library lines — the same "library code"
# the panic ratchet reads: `crates/*/src/**/*.rs` outside `src/bin/`, as
# `scripts/library_code.awk` prints it (up to the test module's
# column-0 `#[cfg(test)]`, less each item an indented `#[cfg(test)]`
# marks). A file that reaches the ceiling is split at a seam, not trimmed
# of comments; raise the ceiling only with the reason in CHANGES.md.
#
# It also prints each crate's total of the same lines, so the per-crate
# targets in ROADMAP.md can be read from its output, and the workspace
# total, which fails above its own ceiling: 100 lines above the total
# measured when the ceiling was last set (20 862 then). A change that
# adds more than 100 library lines says what it deleted, or why it could
# not delete anything; raising the total ceiling takes a line in
# CHANGES.md.
set -euo pipefail

ceiling=800
total_ceiling=20962

cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() {
  awk -f scripts/library_code.awk "$1" | awk 'END { print NR }'
}

largest=0
largest_file=""
failed=0
declare -A crate_lines=()
while IFS= read -r file; do
  n="$(count "$file")"
  crate="${file#crates/}"
  crate="${crate%%/*}"
  crate_lines[$crate]=$(( ${crate_lines[$crate]:-0} + n ))
  if [ "$n" -gt "$largest" ]; then
    largest="$n"
    largest_file="$file"
  fi
  if [ "$n" -gt "$ceiling" ]; then
    printf '%5d  %s\n' "$n" "$file"
    failed=1
  fi
done < <(find crates/*/src -name '*.rs' -not -path '*/src/bin/*' | sort)

echo "library lines per crate:"
total=0
while IFS= read -r crate; do
  printf '%6d  %s\n' "${crate_lines[$crate]}" "$crate"
  total=$(( total + ${crate_lines[$crate]} ))
done < <(printf '%s\n' "${!crate_lines[@]}" | sort)
printf '%6d  in all, ceiling %d\n' "$total" "$total_ceiling"
if [ "$total" -gt "$total_ceiling" ]; then
  echo "FAIL library code has $total lines in all, more than $total_ceiling" >&2
  exit 1
fi

if [ "$failed" -ne 0 ]; then
  echo "FAIL files above have more than $ceiling non-test lines" >&2
  exit 1
fi
echo "ok   largest library file is $largest_file with $largest non-test lines, ceiling $ceiling"
