#!/usr/bin/env bash
# Non-test `src` lines per crate: everything in `crates/<c>/src/*.rs` above
# the file's `#[cfg(test)]` module. ROADMAP tracks the net line count; this
# puts the number in every CI log.
set -euo pipefail
cd "$(dirname "$0")/.."
for dir in crates/*/; do
  c="$(basename "$dir")"
  printf '%-14s %6d\n' "$c" \
    "$(awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n+0}' "crates/$c"/src/*.rs)"
done
