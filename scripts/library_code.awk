# Print the library code of one Rust source file — the lines the panic,
# knob and size ratchets count:
#
#   awk -f scripts/library_code.awk FILE
#
# Library code ends at the first `#[cfg(test)]` at column 0 (the unit-test
# module). Above it, an indented `#[cfg(test)]` alone on its line marks one
# test-only item — a field, a method, a statement — and only that item is
# left out: from the attribute to the line where its brackets close again
# and it ends in `,`, `;` or `}`. Brackets after `//` are not counted;
# brackets inside string or char literals are.

/^#\[cfg\(test\)\]/ { exit }

skipping {
  code = $0
  sub(/\/\/.*/, "", code)
  depth += gsub(/[({[]/, "", code) - gsub(/[)}\]]/, "", code)
  if (depth <= 0 && $0 ~ /[,;}][[:space:]]*$/) {
    skipping = 0
  }
  next
}

/^[[:space:]]+#\[cfg\(test\)\][[:space:]]*$/ {
  skipping = 1
  depth = 0
  next
}

{ print }
