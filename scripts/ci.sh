#!/usr/bin/env bash
# The full CI gate, runnable locally: formatting, lints, build, tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> non-test src lines per crate (ROADMAP: net line count is a tracked metric)"
bash scripts/loc.sh

echo "==> source-backend integration tests (against a live qpo-source-server)"
cargo build --release -p qpo-exec --bin qpo-source-server
addr_file="$(mktemp /tmp/qpo-source-addr.XXXXXX)"
rm -f "$addr_file"
./target/release/qpo-source-server --quiet --addr-file "$addr_file" &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true' EXIT
for _ in $(seq 1 50); do
  [[ -s "$addr_file" ]] && break
  sleep 0.1
done
[[ -s "$addr_file" ]] || { echo "qpo-source-server never reported an address"; exit 1; }
QPO_SOURCE_SERVER_ADDR="$(cat "$addr_file")" cargo test -q -p qpo-exec --test backends

echo "==> distributed-tracing gate (traced run against the live server, validated end to end)"
cargo build --release -p qpo-bench --bin bench-backends --bin trace-validate
remote_trace="$(mktemp /tmp/qpo-remote-trace.XXXXXX.jsonl)"
smoke_out="$(./target/release/bench-backends --smoke --tcp-addr "$(cat "$addr_file")" --trace "$remote_trace")"
echo "$smoke_out"
./target/release/trace-validate "$remote_trace"
rm -f "$remote_trace"
# Keep-alive: the run's accesses rode fewer connections than there were accesses.
read -r opened accesses < <(sed -n 's/^tcp connections: opened \([0-9]*\) reused [0-9]* accesses \([0-9]*\).*/\1 \2/p' <<<"$smoke_out") || true
[[ -n "${opened:-}" && "$opened" -lt "$accesses" ]] \
  || { echo "tcp opened ${opened:-?} connections for ${accesses:-?} accesses: the pool is not reusing"; exit 1; }
server_dump="$(./target/release/qpo-source-server --metrics "$(cat "$addr_file")")"
[[ -n "$server_dump" ]] || { echo "server span journal is empty after a traced run"; exit 1; }
echo "$server_dump" | tail -n 3
# Pushdown: the movie query binds `ford`, so the server saw bound accesses.
grep -q 'pattern=bind' <<<"$server_dump" \
  || { echo "no pattern=bind line in the server journal: constants are not riding the pattern"; exit 1; }
kill "$server_pid" 2>/dev/null || true
rm -f "$addr_file"

echo "==> trace journal validation gate"
cargo build --release --example flaky_sources -p query-plan-ordering
cargo build --release -p qpo-bench --bin trace-validate
trace_file="$(mktemp /tmp/qpo-trace.XXXXXX.jsonl)"
./target/release/examples/flaky_sources --trace "$trace_file" > /dev/null
./target/release/trace-validate "$trace_file"
rm -f "$trace_file"

echo "==> ordering-kernel bench smoke (release)"
bash scripts/bench.sh --smoke

echo "==> any-k streaming bench smoke (release; fig6-anyk-m4 must release its first tuple within 6 plans)"
cargo build --release -p qpo-bench --bin bench-anyk
./target/release/bench-anyk --smoke

echo "==> source-backend bench smoke (release: sim/store/tcp answer equivalence)"
cargo build --release -p qpo-bench --bin bench-backends
./target/release/bench-backends --smoke

echo "==> end-to-end benchmark: harness unit tests, then every workload and oracle at smoke size"
# A package of its own (bench_e2e/Cargo.toml), so the workspace steps above
# neither compile nor run it: a crate API change that breaks it shows here.
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline --manifest-path bench_e2e/Cargo.toml
bash bench_e2e/run.sh --smoke

echo "CI gate passed."
