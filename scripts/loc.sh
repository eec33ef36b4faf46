#!/usr/bin/env bash
# Non-test `src` lines per crate, and their total: everything in
# `crates/<c>/src/*.rs` above the file's `#[cfg(test)]` module. ROADMAP
# tracks the net line count; this puts the number in every CI log. Three
# rows after `total`, not added into it so the series stays comparable,
# count the same way what lives outside `src/*.rs`: the bins, any cargo
# benches, and the first-party shims. A last row, `builders`, is the
# option count: `pub fn with_*` / `pub fn set_*` in the same non-test
# `src` lines — each one a value somebody can set independently. The
# crate rows and `total` carry a second column: how many of those lines
# call `.unwrap(` / `.expect(` (ROADMAP item 6's panic audit); comment
# lines, whose first non-blank characters are `//`, do not count there.
set -euo pipefail
cd "$(dirname "$0")/.."
# Non-test lines of the given files matching $pat (unset: every line),
# comment lines left out when $code is set.
count() {
  awk -v pat="${pat:-}" -v code="${code:-}" 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1}
    !t && $0 ~ pat && !(code && /^[[:space:]]*\/\//){n++} END{print n+0}' "$@" </dev/null
}
panics='[.](unwrap|expect)[(]'
total=0
total_panics=0
for dir in crates/*/; do
  c="$(basename "$dir")"
  n="$(count "crates/$c"/src/*.rs)"
  e="$(code=1 pat="$panics" count "crates/$c"/src/*.rs)"
  printf '%-14s %6d %6d\n' "$c" "$n" "$e"
  total=$((total + n))
  total_panics=$((total_panics + e))
done
printf '%-14s %6d %6d\n' total "$total" "$total_panics"
shopt -s nullglob
printf '%-14s %6d\n' bins "$(count crates/*/src/bin/*.rs)"
printf '%-14s %6d\n' benches "$(count crates/*/benches/*.rs)"
printf '%-14s %6d\n' shims "$(count shims/*/src/*.rs)"
printf '%-14s %6d\n' builders "$(pat='pub fn (with|set)_' count crates/*/src/*.rs)"
