# Read the code scripts/library_code.awk prints of one Rust source file and
# name, for scripts/surface_lint.sh, either the public functions it defines
# or the functions it calls:
#
#   awk -f scripts/library_code.awk FILE |
#     awk -f scripts/surface_scan.awk -v mode=defs -v file=FILE
#   awk -f scripts/library_code.awk FILE | awk -f scripts/surface_scan.awk -v mode=calls
#
# `defs` prints `TYPE NAME KIND FILE` for every `pub fn NAME`: TYPE is the
# type of the enclosing `impl` (`-` outside one) and KIND is `method` when
# the first parameter is a `self`, `assoc` for any other function of an
# `impl`, and `free` outside one.
#
# `calls` prints each line but the `impl` headers, with every `Self::` path
# inside an `impl` written as the impl's type, so `Type::name` is what an
# associated function's call looks like wherever it is made.
#
# An `impl` runs from its header to the `}` at the header's own indentation
# (the tree is rustfmt-formatted); the type is the header's last path
# segment after `for`, if any, without generic arguments.

function impl_type(line,    s, i, c, d, t) {
  s = line
  sub(/^[[:space:]]*(pub(\([a-z]+\))? )?(unsafe )?impl/, "", s)
  if (substr(s, 1, 1) == "<") {
    d = 0
    for (i = 1; i <= length(s); i++) {
      c = substr(s, i, 1)
      if (c == "<") d++
      else if (c == ">" && --d == 0) break
    }
    s = substr(s, i + 1)
  }
  if (match(s, / for /)) s = substr(s, RSTART + 5)
  sub(/^[[:space:]&]+/, "", s)
  sub(/^'[A-Za-z_]+[[:space:]]+/, "", s)
  sub(/^(mut|dyn)[[:space:]]+/, "", s)
  match(s, /^[A-Za-z0-9_:]+/)
  t = substr(s, RSTART, RLENGTH)
  sub(/.*::/, "", t)
  return t == "" ? "-" : t
}

# The parameter list of the signature `sig` once it is complete, else the
# empty string; `sig` starts with `fn NAME`.
function params(sig,    s, i, c, d, open) {
  s = sig
  sub(/^.*fn[[:space:]]+[A-Za-z_][A-Za-z0-9_]*[[:space:]]*/, "", s)
  d = 0
  open = 0
  for (i = 1; i <= length(s); i++) {
    c = substr(s, i, 1)
    if (!open && c == "<") d++
    else if (!open && c == ">") d--
    else if (c == "(" && (open || d == 0)) {
      if (!open) { open = i; d = 0 }
      d++
    } else if (c == ")" && open && --d == 0) {
      return "(" substr(s, open + 1, i - open - 1) ")"
    }
  }
  return ""
}

function define(sig,    p, name, kind) {
  p = params(sig)
  if (p == "") return 0
  name = sig
  sub(/^.*fn[[:space:]]+/, "", name)
  match(name, /^[A-Za-z_][A-Za-z0-9_]*/)
  name = substr(name, 1, RLENGTH)
  if (p ~ /^\([[:space:]]*(&[[:space:]]*('[A-Za-z_]+[[:space:]]+)?)?(mut[[:space:]]+)?self([^A-Za-z0-9_]|$)/) kind = "method"
  else if (depth > 0) kind = "assoc"
  else kind = "free"
  print (depth > 0 ? type[depth] : "-"), name, kind, file
  return 1
}

{ line = $0 }

depth > 0 && line ~ "^" indent[depth] "}[[:space:]]*$" { depth--; next }

line ~ /^[[:space:]]*(pub(\([a-z]+\) )?)?(unsafe )?impl[<[:space:]]/ && line !~ /}[[:space:]]*$/ {
  depth++
  match(line, /^[[:space:]]*/)
  indent[depth] = substr(line, 1, RLENGTH)
  type[depth] = impl_type(line)
  next
}

mode == "defs" {
  if (pending != "") {
    pending = pending " " line
    if (define(pending)) pending = ""
  } else if (line ~ /^[[:space:]]*pub (const |async )?fn [A-Za-z_]/) {
    if (!define(line)) pending = line
  }
  next
}

mode == "calls" {
  if (depth > 0) {
    out = ""
    while (match(line, /Self::/)) {
      c = RSTART > 1 ? substr(line, RSTART - 1, 1) : ""
      out = out substr(line, 1, RSTART - 1) (c ~ /[A-Za-z0-9_]/ ? "Self" : type[depth]) "::"
      line = substr(line, RSTART + 6)
    }
    line = out line
  }
  print line
}
