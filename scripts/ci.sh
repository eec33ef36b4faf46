#!/usr/bin/env bash
# The full CI gate, runnable locally: formatting, lints, build, tests.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors; the shims stand in for third-party crates)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --exclude proptest --exclude rand --exclude crossbeam

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> every example, once, with default arguments"
# Clippy compiles the examples; only running them catches a panic.
cargo build --release --examples -p query-plan-ordering
for example in examples/*.rs; do
  name="$(basename "$example" .rs)"
  ./target/release/examples/"$name" > /dev/null \
    || { echo "example $name exited non-zero"; exit 1; }
done

echo "==> every experiment of the harness, once (the only caller of Streamer/PI/iDrips at m 16, k 100)"
cargo run -q --release -p qpo-bench --bin regen-experiments > /dev/null

echo "==> cargo test"
cargo test -q --workspace

echo "==> Streamer beside its reference twin over n 1-4 x m 1-6, up to 1 296 plans (release only)"
cargo test -q --release -p qpo-core --test kernel_equivalence streamer_matches_its_reference_twin_wide

echo "==> lazy Pi beside its eager reference twin over n 1-4 x m 1-6, up to 1 296 plans (release only)"
cargo test -q --release -p qpo-core --test kernel_equivalence pi_matches_its_reference_twin_wide

echo "==> the any-k merge and positional join beside their reference twins, wide (release only)"
cargo test -q --release -p qpo-anyk --test twins wide

echo "==> the boundary sort beside sort_unstable, up to 2 048 rows (release only)"
cargo test -q --release -p qpo-datalog --test properties wide

echo "==> the answer union beside its reference twin, up to 600-row tables (release only)"
cargo test -q --release -p qpo-runtime --test twins wide

echo "==> the chain measures beside their reference twins, wide (release only)"
cargo test -q --release -p qpo-utility --test twins wide

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

echo "==> distributed-tracing gate (the server's side of the suite's traced runs)"
# The suite above validated its traced tcp journal in process; what only
# the server can show is its own span journal, a JSONL trace.
server_dump="$(./target/release/qpo-source-server --metrics "$(cat "$addr_file")")"
grep -q '"kind":"server_span"' <<<"$server_dump" \
  || { echo "no server_span event in the server journal after a traced run"; exit 1; }
echo "$server_dump" | tail -n 3
# Pushdown: the movie query binds `ford`, so the server saw bound accesses.
grep -qF '"pattern":"bind;0=s4:ford"' <<<"$server_dump" \
  || { echo "no bound ford access in the server journal: constants are not riding the pattern"; exit 1; }
kill "$server_pid" 2>/dev/null || true
rm -f "$addr_file"

echo "==> trace journal validation gate"
cargo build --release -p qpo-bench --bin trace-validate
trace_file="$(mktemp /tmp/qpo-trace.XXXXXX.jsonl)"
./target/release/examples/flaky_sources --trace "$trace_file" > /dev/null
./target/release/trace-validate "$trace_file"
# The kernel's one trace record, the certificates `/explain` answers from.
grep -q '"kind":"kernel_elimination"' "$trace_file" \
  || { echo "no kernel_elimination certificate in the flaky_sources trace"; exit 1; }
# Sessions are the only emitter of `stream_attached` and `tuple_emitted`.
./target/release/examples/anytime_answers --trace "$trace_file" > /dev/null
./target/release/trace-validate "$trace_file"
grep -q '"kind":"tuple_emitted"' "$trace_file" \
  || { echo "no tuple_emitted event in the any-k session's trace"; exit 1; }
# A session that streams from its first pull schedules by score bound.
grep -q '"strategy":"score-bound"' "$trace_file" \
  || { echo "the any-k session did not schedule its plans by score bound"; exit 1; }
# It streams from its first pull, so its plans are joined once, by their
# ranked streams: none is joined at merge, none counts tuples there.
grep -q '"kind":"plan_completed"' "$trace_file" \
  || { echo "no plan_completed event in the any-k session's trace"; exit 1; }
if grep '"kind":"plan_completed"' "$trace_file" | grep -q '"new_tuples"'; then
  echo "a streamed plan was joined at merge (plan_completed carries new_tuples)"; exit 1
fi
rm -f "$trace_file"

echo "==> end-to-end benchmark: harness unit tests, then every workload and oracle at smoke size"
# A package of its own (bench_e2e/Cargo.toml), so the workspace steps above
# neither compile nor run it: a crate API change that breaks it shows here.
CARGO_TARGET_DIR=.bench_build cargo test -q --release --offline --manifest-path bench_e2e/Cargo.toml
bash bench_e2e/run.sh --smoke

echo "CI gate passed."
