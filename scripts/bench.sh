#!/usr/bin/env bash
# Benchmark drivers, committed-baseline style: the benches write one JSON
# file at the repo root so future PRs can diff their numbers against this
# PR's baseline.
#
# - bench-ordering: incremental kernel vs the preserved reference loop,
#   with CountingMeasure eval counters (BENCH_ordering.json).
# - bench-anyk: time-to-k-th-tuple of the any-k stream vs the
#   plan-at-a-time ranked baseline, merged into BENCH_ordering.json as
#   the "anyk" section (after bench-ordering rewrites the base file).
# - bench-backends: the same query through the sim/store/tcp source
#   backends (access p50/p95, answer equivalence), merged into
#   BENCH_ordering.json as the "backends" section.
#
# Usage:
#   scripts/bench.sh            # full workloads, rewrite the JSON file
#   scripts/bench.sh --smoke    # reduced ordering workloads, no file
#                               # writes; exits non-zero if the >=2x
#                               # eval-reduction gate fails (CI check)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release -p qpo-bench --bin bench-ordering"
cargo build --release -p qpo-bench --bin bench-ordering

if [[ "${1:-}" == "--smoke" ]]; then
  echo "==> bench-ordering --smoke"
  ./target/release/bench-ordering --smoke
else
  echo "==> bench-ordering --out BENCH_ordering.json"
  ./target/release/bench-ordering --out BENCH_ordering.json
  echo "==> cargo build --release -p qpo-bench --bin bench-anyk"
  cargo build --release -p qpo-bench --bin bench-anyk
  echo "==> bench-anyk --merge BENCH_ordering.json"
  ./target/release/bench-anyk --merge BENCH_ordering.json
  echo "==> cargo build --release -p qpo-bench --bin bench-backends"
  cargo build --release -p qpo-bench --bin bench-backends
  echo "==> bench-backends --merge BENCH_ordering.json"
  ./target/release/bench-backends --merge BENCH_ordering.json
fi
