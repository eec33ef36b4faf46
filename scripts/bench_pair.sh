#!/usr/bin/env bash
# Paired end-to-end comparison of this checkout against its parent: the
# protocol behind every `bench_e2e` claim in CHANGES.md / ROADMAP.md.
#
#   scripts/bench_pair.sh <workload>... [--seed N] [--pairs 10] [--parent REV]
#                         [--claim <metric>@<workload>]
#
# Extracts REV (default: HEAD when the tree has uncommitted changes, else
# HEAD~1) into a temporary directory — once, however many workloads are
# named — builds both sides once, then, workload by workload, runs
# `bash bench_e2e/run.sh --workload W --seed N --seconds 15 --trace 0`
# in pairs, alternating which side goes first, so drift of the machine
# lands on both sides alike. Prints one table per workload: per
# end-to-end metric of BENCHMARK.json, each side's quartiles and median,
# the change of the median, and in how many pairs the change was better,
# then each side's median `attempted` (queries served).
# The exit status is the verdict: 1 if any row's median is worse than the
# parent's by more than the metric's BENCHMARK.json bound, with or without
# a claim. A claimed gain wants wins >= 9 of 10 and a median gain beyond
# the parent's q1..q3: `--claim query_ms_p50@share-warm` also makes the
# exit status 1 unless that row meets it. A failing row says so in a last
# column.
set -euo pipefail
cd "$(dirname "$0")/.."

usage='usage: scripts/bench_pair.sh <workload>... [--seed N] [--pairs 10] [--parent REV] [--claim <metric>@<workload>]'
workloads=() seed=2002 pairs=10 parent="" claim=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift ;;
    --pairs) pairs="$2"; shift ;;
    --parent) parent="$2"; shift ;;
    --claim) claim="$2"; shift ;;
    --*) echo "bench_pair: unknown argument \"$1\"" >&2; exit 2 ;;
    *) workloads+=("$1") ;;
  esac
  shift
done
[[ ${#workloads[@]} -gt 0 ]] || { echo "$usage" >&2; exit 2; }
if [[ -z "$parent" ]]; then
  if git diff --quiet HEAD; then parent="HEAD~1"; else parent="HEAD"; fi
fi

# `name better bound` per end-to-end metric, in BENCHMARK.json's order.
metrics="$(awk '
  /"end_to_end"/ { on = 1 } /"per_layer"/ { on = 0 }
  on && /"name"/ { gsub(/[",]/, ""); name = $2 }
  on && /"better"/ { gsub(/[",]/, ""); better = $2 }
  on && /"bound"/ { gsub(/[",]/, ""); print name, better, $2 }' BENCHMARK.json)"
if [[ -n "$claim" ]]; then
  grep -q "^${claim%@*} " <<<"$metrics" && [[ " ${workloads[*]} " == *" ${claim#*@} "* ]] \
    || { echo "bench_pair: --claim $claim names no end-to-end metric of a workload being run" >&2; exit 2; }
fi

tmp="$(mktemp -d "${TMPDIR:-/tmp}/qpo-bench-pair.XXXXXX")"
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/parent"
git archive "$parent" | tar -x -C "$tmp/parent"
echo "parent: $(git rev-parse --short "$parent") in $tmp/parent; change: working tree; $pairs pairs of ${workloads[*]} at seed $seed" >&2

# One run of $workload in directory $1 (its first builds that side);
# prints the JSON result line, fails on a wrong or failing run.
run() {
  local line
  line="$(cd "$1" && env -u CARGO_TARGET_DIR bash bench_e2e/run.sh \
    --workload "$workload" --seed "$seed" --seconds 15 --trace 0 | tail -n 1)"
  grep -q '"correct": true' <<<"$line" && grep -q '"failed": 0,' <<<"$line" \
    || { echo "bench_pair: a run in $1 was wrong or had failures: $line" >&2; exit 1; }
  echo "$line"
}

values() { sed -n "s/.*\"$2\": {\"value\": \([^,}]*\).*/\1/p" "$1"; }

# The median of the result lines' `attempted` (queries served) in $1.
attempted() {
  sed -n 's/.*"attempted": \([0-9]*\).*/\1/p' "$1" | sort -n |
    awk '{ v[NR] = $1 } END { print NR % 2 ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

# The table of $workload: one line per end-to-end metric. A row that
# fails the protocol — the claimed one not met, another worse than its
# bound — says so and is counted in $tmp/failed.
table() {
  echo "== $workload, seed $seed, $pairs pairs =="
  printf '%-26s %-6s %-32s %-32s %9s %6s\n' metric better \
    'parent q1 / median / q3' 'change q1 / median / q3' 'median' wins
  while read -r name better bound; do
    paste <(values "$tmp/parent.$workload.jsonl" "$name") <(values "$tmp/change.$workload.jsonl" "$name") |
      awk -v name="$name" -v better="$better" -v bound="$bound" \
        -v claimed="$([[ "$claim" == "$name@$workload" ]] && echo 1)" -v failed="$tmp/failed" '
        function quantile(v, n, q,    h, lo) {
          h = (n - 1) * q; lo = int(h)
          return lo + 1 >= n ? v[n] : v[lo + 1] + (h - lo) * (v[lo + 2] - v[lo + 1])
        }
        function sort(v, n,    i, j, t) {
          for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j - 1] > v[j]; j--) {
            t = v[j]; v[j] = v[j - 1]; v[j - 1] = t
          }
        }
        { n++; p[n] = $1; c[n] = $2
          if (better == "lower" ? $2 < $1 : $2 > $1) wins++ }
        END {
          sort(p, n); sort(c, n)
          pm = quantile(p, n, 0.5); cm = quantile(c, n, 0.5)
          p1 = quantile(p, n, 0.25); p3 = quantile(p, n, 0.75)
          gain = better == "lower" ? pm - cm : cm - pm
          if (claimed) verdict = 10 * wins >= 9 * n && gain > p3 - p1 ? "  claim met" : "  CLAIM NOT MET"
          else if (pm && -gain / pm > bound) verdict = "  WORSE THAN BOUND " bound
          if (verdict ~ /[A-Z]/) print name >> failed
          printf "%-26s %-6s %-32s %-32s %+8.1f%% %3d/%d%s\n", name, better,
            sprintf("%.4g / %.4g / %.4g", p1, pm, p3),
            sprintf("%.4g / %.4g / %.4g", quantile(c, n, 0.25), cm, quantile(c, n, 0.75)),
            pm ? 100 * (cm - pm) / pm : 0, wins, n, verdict
        }'
  done <<<"$metrics"
  # A side that serves more queries keeps a longer sample log: read a
  # `peak_rss_mb` move beside these.
  echo "attempted (queries served), median: parent $(attempted "$tmp/parent.$workload.jsonl"), change $(attempted "$tmp/change.$workload.jsonl")"
}

for workload in "${workloads[@]}"; do
  for i in $(seq 1 "$pairs"); do
    # Odd pairs run the parent first, even pairs the change.
    if ((i % 2)); then
      run "$tmp/parent" >>"$tmp/parent.$workload.jsonl"
      run "$PWD" >>"$tmp/change.$workload.jsonl"
    else
      run "$PWD" >>"$tmp/change.$workload.jsonl"
      run "$tmp/parent" >>"$tmp/parent.$workload.jsonl"
    fi
    echo "$workload: pair $i/$pairs done" >&2
  done
  table
done
if [[ -s "$tmp/failed" ]]; then
  echo "bench_pair: $(wc -l <"$tmp/failed") row(s) fail the protocol${claim:+ (--claim $claim)}" >&2
  exit 1
fi
