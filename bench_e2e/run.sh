#!/usr/bin/env bash
# Builds the benchmark and the out-of-process source server it talks to
# (both from this package's manifest and lock file; nothing is fetched),
# then runs `bench_e2e` with the given arguments. Run from the root of a
# checkout:
#
#   bash bench_e2e/run.sh --workload serve-mix --seed 1 --seconds 15 --trace 0
#   bash bench_e2e/run.sh                      # all workloads, see README.md
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# One target directory for both builds, so the server lands beside the
# benchmark binary; relative to the directory the command runs in.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$CARGO_TARGET_DIR"
target="$(cd "$CARGO_TARGET_DIR" && pwd)"

build() {
  # Build chatter goes to stderr; stdout is the benchmark's alone.
  cargo build --release --locked --offline --quiet \
    --manifest-path "$here/Cargo.toml" "$@" 1>&2
}
build --bin bench_e2e
build -p qpo-exec --bin qpo-source-server

exec "$target/release/bench_e2e" "$@"
