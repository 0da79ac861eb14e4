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
# `pub fn NAME`, each with the type of the `impl` it sits in
# (scripts/surface_scan.awk). Non-test code is the same awk's output of
# every `.rs` file under `crates/*/src` (bins included), `examples/` and
# `bench/src`, with `//` comments dropped, so a doc link calls nothing and
# `bench/`'s calls count.
#
# A method (a function whose first parameter is a `self`) is called when
# non-test code outside a `fn NAME` definition names it in call syntax:
# `NAME(` (which `.NAME(` is too), `NAME::<` or `::NAME` (a path, so
# `Type::NAME` passed as a value counts). A bare word is not a call, so a
# local variable, a field or a parameter that shares the method's name
# does not keep it; another method of the same name that is called still
# does. A free function, outside any `impl`, is matched the same way. An
# associated function of an `impl` (one without a `self`) is called only where
# non-test code writes `Type::NAME`, or `Self::NAME` inside an `impl` of
# the same type: a namesake on another type keeps nothing.
#
# Each line of scripts/test_only_surface.txt is a function (`Type::name`,
# the type of its `impl`; a free function is `name` alone),
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

# `TYPE NAME KIND FILE` for every public function of library code.
while IFS= read -r file; do
  awk -f scripts/library_code.awk "$file" |
    awk -f scripts/surface_scan.awk -v mode=defs -v file="$file"
done < <(find crates/*/src -name '*.rs' -not -path '*/src/bin/*' | sort) >"$tmp/defs"

# Non-test code, definitions' own names left out.
while IFS= read -r file; do
  awk -f scripts/library_code.awk "$file" |
    sed -e 's|//.*||' -e 's/\bfn [A-Za-z_][A-Za-z0-9_]*//g' |
    awk -f scripts/surface_scan.awk -v mode=calls
done < <(find crates/*/src examples bench/src -name '*.rs' | sort) >"$tmp/code"

# Every name called in call syntax, and every `Type::name` path.
grep -oE '::[A-Za-z_][A-Za-z0-9_]*|\b[A-Za-z_][A-Za-z0-9_]*(\(|::<)' "$tmp/code" |
  sed -E -e 's/^:://' -e 's/(\(|::<)$//' | sort -u >"$tmp/words"
grep -oE '\b[A-Z][A-Za-z0-9_]*::[a-z_][A-Za-z0-9_]*' "$tmp/code" | sort -u >"$tmp/paths"

# `Type::name` (or a free function's `name`) and its file, for each
# function that nothing calls.
awk -v words="$tmp/words" -v paths="$tmp/paths" '
  BEGIN {
    while ((getline w <words) > 0) called[w] = 1
    while ((getline p <paths) > 0) pathed[p] = 1
  }
  {
    item = $1 == "-" ? $2 : $1 "::" $2
    if ($3 == "assoc" ? !pathed[item] : !called[$2]) print item, $4
  }
' "$tmp/defs" | sort >"$tmp/uncalled"

status=0
listed=0
declare -A kept=()
while read -r item reason; do
  case "$item" in '' | '#'*) continue ;; esac
  listed=$((listed + 1))
  kept[$item]=1
  if [ -z "$reason" ]; then
    echo "FAIL $item is listed without a reason" >&2
    status=1
  fi
  if ! cut -d' ' -f1 "$tmp/uncalled" | grep -qxF "$item"; then
    echo "FAIL $item is listed but is not an uncalled pub fn of library code (called now, or gone)" >&2
    status=1
  fi
done <scripts/test_only_surface.txt

if [ "$listed" -gt "$max_listed" ]; then
  echo "FAIL scripts/test_only_surface.txt lists $listed functions, more than $max_listed" >&2
  status=1
fi

while read -r item file; do
  [ -n "$item" ] || continue
  if [ -z "${kept[$item]:-}" ]; then
    echo "FAIL pub fn $item ($file) has no caller outside tests and is not listed" >&2
    status=1
  else
    echo "kept $item ($file)"
  fi
done <"$tmp/uncalled"

if [ "$status" -eq 0 ]; then
  echo "ok   $(wc -l <"$tmp/defs") pub fns in library code; the $listed without a caller outside tests are listed with their reasons"
fi
exit "$status"
