#!/usr/bin/env bash
# Panic ratchet for library code: count the sites that can abort the
# process and fail when there are more than the committed ceiling.
#
#   scripts/panic_ratchet.sh
#
# A site is an occurrence of `.unwrap()`, `.expect(`, `panic!(` or
# `unreachable!(` on a non-comment line of library code: a
# `crates/*/src/**/*.rs` file outside `src/bin/` (binaries may abort) as
# `scripts/library_code.awk` prints it — up to the test module's column-0
# `#[cfg(test)]`, less each test-only item an indented `#[cfg(test)]`
# marks. Library code returns `QbError` for anything
# input or the network can cause; a site that stays is an `expect` whose
# message names the invariant that makes it unreachable. Lower the ceiling
# when a change removes sites; raise it only with the reason in CHANGES.md.
set -euo pipefail

ceiling=4

cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() {
  awk -f scripts/library_code.awk "$1" | awk '
    /^[[:space:]]*\/\// { next }
    { n += gsub(/\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(/, "") }
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
  echo "FAIL $total panic sites in library code, ceiling is $ceiling" >&2
  exit 1
fi
echo "ok   $total panic sites in library code, ceiling $ceiling"
