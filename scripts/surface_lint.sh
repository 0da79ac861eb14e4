#!/usr/bin/env bash
# Surface lint for library code: a public function stays only if a program
# reads it, so one that no non-test code calls fails here unless
# scripts/test_only_surface.txt keeps it and says why.
#
#   scripts/surface_lint.sh
#
# Library code is what scripts/library_code.awk prints of
# `crates/*/src/**/*.rs` outside `src/bin/` (the file set of the size, panic
# and knob ratchets); its functions are the lines that open with
# `pub fn NAME`. Non-test code is the same awk's output of every `.rs` file
# under `crates/*/src` (bins included), `examples/` and `bench/src`, with
# `//` comments dropped, so a doc link calls nothing and `bench/`'s calls
# count. A function is called when non-test code outside a `fn NAME`
# definition names it in call syntax: `NAME(` (which `.NAME(` is too),
# `NAME::<` or `::NAME` (a path, so `Type::NAME` passed as a value counts).
# A bare word is not a call, so a local variable, a field or a parameter
# that shares the function's name does not keep it; another function of
# the same name that is called still does.
#
# Each line of scripts/test_only_surface.txt is a function (`Type::name`),
# whitespace and a one-line reason; `#` starts a comment. A function is
# kept only for a consumer that is scheduled or as a fault hook or probe
# that a test outside its crate needs. The list names exactly the uncalled
# functions: an uncalled one it does not list, a listed one with no reason,
# and a listed one that gained a caller (or is gone) all fail, so a kept
# function leaves the list with the change that calls or deletes it. The
# list holds at most `max_listed` entries.
set -euo pipefail

max_listed=12

cd "$(dirname "${BASH_SOURCE[0]}")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# `NAME FILE` for every public function of library code.
while IFS= read -r file; do
  awk -f scripts/library_code.awk "$file" |
    sed -n 's/^[[:space:]]*pub \(const \|async \)\{0,1\}fn \([A-Za-z_][A-Za-z0-9_]*\).*/\2/p' |
    sed "s|\$| $file|"
done < <(find crates/*/src -name '*.rs' -not -path '*/src/bin/*' | sort) >"$tmp/defs"

# Every name non-test code calls, definitions' own names left out.
while IFS= read -r file; do
  awk -f scripts/library_code.awk "$file" |
    sed -e 's|//.*||' -e 's/\bfn [A-Za-z_][A-Za-z0-9_]*//g'
done < <(find crates/*/src examples bench/src -name '*.rs' | sort) |
  grep -oE '::[A-Za-z_][A-Za-z0-9_]*|\b[A-Za-z_][A-Za-z0-9_]*(\(|::<)' |
  sed -E -e 's/^:://' -e 's/(\(|::<)$//' | sort -u >"$tmp/words"

cut -d' ' -f1 "$tmp/defs" | sort -u | comm -23 - "$tmp/words" >"$tmp/uncalled"

status=0
listed=0
declare -A kept=()
while read -r item reason; do
  case "$item" in '' | '#'*) continue ;; esac
  listed=$((listed + 1))
  name="${item##*::}"
  kept[$name]=1
  if [ -z "$reason" ]; then
    echo "FAIL $item is listed without a reason" >&2
    status=1
  fi
  if ! grep -qxF "$name" "$tmp/uncalled"; then
    echo "FAIL $item is listed but is not an uncalled pub fn of library code (called now, or gone)" >&2
    status=1
  fi
done <scripts/test_only_surface.txt

if [ "$listed" -gt "$max_listed" ]; then
  echo "FAIL scripts/test_only_surface.txt lists $listed functions, more than $max_listed" >&2
  status=1
fi

while read -r name; do
  [ -n "$name" ] || continue
  files="$(awk -v n="$name" '$1 == n { print $2 }' "$tmp/defs" | paste -sd' ' -)"
  if [ -z "${kept[$name]:-}" ]; then
    echo "FAIL pub fn $name ($files) has no caller outside tests and is not listed" >&2
    status=1
  else
    echo "kept $name ($files)"
  fi
done <"$tmp/uncalled"

if [ "$status" -eq 0 ]; then
  echo "ok   $(wc -l <"$tmp/defs") pub fns in library code; the $listed without a caller outside tests are listed with their reasons"
fi
exit "$status"
