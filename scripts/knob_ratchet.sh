#!/usr/bin/env bash
# Config-surface ratchet for library code: count the settable fields of
# every configuration struct and fail when there are more than the
# committed ceiling.
#
#   scripts/knob_ratchet.sh
#
# A field is a `pub name:` line inside a `pub struct <Name>Config {` body
# on a non-comment line of library code, as `scripts/library_code.awk`
# prints it, in a `crates/*/src/**/*.rs` file outside `src/bin/` — the
# lines the panic ratchet reads. The rule it enforces (ROADMAP, "Knobs and
# comparison-only modes"): an option stays only if two non-test callers
# that exist today give it different values; a value every caller shares
# is a named constant. The rule covers constructor parameters and the
# `pub` fields of contracts and workloads too (ARCHITECTURE.md,
# "Configuration and protocol constants"); this script counts only the
# config fields. Lower the ceiling when a change removes fields;
# raise it only by naming, in CHANGES.md, the two non-test callers that
# need different values of each new field.
set -euo pipefail

ceiling=71

cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() {
  awk -f scripts/library_code.awk "$1" | awk '
    /^[[:space:]]*\/\// { next }
    /^[[:space:]]*pub struct [A-Za-z0-9_]*Config[[:space:]]*\{/ { inside = 1; next }
    inside && /^}/ { inside = 0; next }
    inside && /^[[:space:]]*pub [a-z_][a-z0-9_]*[[:space:]]*:/ { n += 1 }
    END { print n + 0 }
  '
}

total=0
while IFS= read -r file; do
  n="$(count "$file")"
  if [ "$n" -gt 0 ]; then
    printf '%4d  %s\n' "$n" "$file"
    total=$((total + n))
  fi
done < <(find crates/*/src -name '*.rs' -not -path '*/src/bin/*' | sort)

if [ "$total" -gt "$ceiling" ]; then
  echo "FAIL $total config fields in library code, ceiling is $ceiling" >&2
  exit 1
fi
echo "ok   $total config fields in library code, ceiling $ceiling"
