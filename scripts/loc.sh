#!/usr/bin/env bash
# Non-test `src` lines per crate, and their total: everything in
# `crates/<c>/src/*.rs` above the file's `#[cfg(test)]` module. ROADMAP
# tracks the net line count; this puts the number in every CI log.
set -euo pipefail
cd "$(dirname "$0")/.."
total=0
for dir in crates/*/; do
  c="$(basename "$dir")"
  n="$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}' "crates/$c"/src/*.rs)"
  printf '%-14s %6d\n' "$c" "$n"
  total=$((total + n))
done
printf '%-14s %6d\n' total "$total"
