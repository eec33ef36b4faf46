#!/usr/bin/env bash
# Non-test `src` lines per crate, and their total: everything in
# `crates/<c>/src/*.rs` above the file's `#[cfg(test)]` module. ROADMAP
# tracks the net line count; this puts the number in every CI log. Three
# rows after `total`, not added into it so the series stays comparable,
# count the same way what lives outside `src/*.rs`: the bins, any cargo
# benches, and the first-party shims.
set -euo pipefail
cd "$(dirname "$0")/.."
count() {
  awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}' "$@" </dev/null
}
total=0
for dir in crates/*/; do
  c="$(basename "$dir")"
  n="$(count "crates/$c"/src/*.rs)"
  printf '%-14s %6d\n' "$c" "$n"
  total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
shopt -s nullglob
printf '%-14s %6d\n' bins "$(count crates/*/src/bin/*.rs)"
printf '%-14s %6d\n' benches "$(count crates/*/benches/*.rs)"
printf '%-14s %6d\n' shims "$(count shims/*/src/*.rs)"
