//! Source-backend benchmark: the same query, the same ordering, executed
//! through the three shipped [`SourceBackend`](qpo_runtime::SourceBackend)
//! implementations — the deterministic simulator (`sim`), the in-process
//! persistent indexed store (`store`), and a loopback TCP source server
//! (`tcp`) — comparing per-access latency distributions and gating on
//! answer equivalence.
//!
//! Reported per backend: live access attempts, access-latency p50/p95
//! (virtual units — the simulator draws them, real backends map measured
//! wall time at 1 unit/ms), failed plans, and the answer count. For the
//! tcp path additionally: connections opened vs reused over those
//! accesses (the keep-alive pool), and rows shipped per access under the
//! query's binding patterns vs under a scan (the pushdown).
//!
//! Gates (all modes): every backend returns the answer set of the
//! simulator *bit-identically*, emits the identical plan sequence, and
//! fails no plan. `--smoke` is the CI entry point and additionally gates
//! the tracing overhead: the traced tcp client's access p50 must stay
//! within 5% (plus a 0.1-unit absolute floor) of an untraced client
//! against the same server, every traced access must carry a stitched
//! remote span, the tcp runs must open fewer connections than they make
//! accesses, and a subgoal with a constant must ship fewer rows than a
//! scan of its source. `--merge` inserts a `"backends"` section into
//! BENCH_ordering.json, now including a `"remote_tracing"` block with
//! network-vs-server p50/p95 from the stitched spans.
//!
//! Usage:
//!
//! ```text
//! bench-backends [--smoke] [--merge BENCH_ordering.json]
//!                [--tcp-addr ADDR] [--trace FILE]
//! ```
//!
//! `--tcp-addr` points the tcp backends at an already-running
//! `qpo-source-server` (CI spawns one) instead of an in-process server;
//! `--trace` writes the traced run's JSONL journal for `trace-validate`.

use qpo_catalog::domains::{movie_domain, movie_query, MOVIE_POOL, MOVIE_UNIVERSE};
use qpo_exec::{
    snapshot_relations, BackendRegistry, Mediator, RunOptions, StopCondition, Strategy,
};
use qpo_obs::{Obs, ProfileIndex};
use qpo_runtime::{
    AccessContext, BindingPattern, FaultConfig, MemProvider, RuntimePolicy, SourceBackend,
    SourceGrid, SourceServer, StoreBackend, TcpBackend, SCAN_PATTERN,
};
use qpo_utility::LinearCost;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// Runs per backend: enough latency samples for stable percentiles
/// (9 plans × 2 sources × REPEATS), cheap enough for a CI smoke.
const REPEATS: usize = 3;

struct BackendMeasure {
    label: &'static str,
    attempts: u64,
    access_p50: f64,
    access_p95: f64,
    failed: usize,
    answers: usize,
    answers_match_sim: bool,
    plans_match_sim: bool,
}

/// Network-vs-server attribution from the stitched remote spans of a
/// traced tcp pass, plus the traced/untraced p50 pair the overhead gate
/// compares.
struct RemoteMeasure {
    spans: usize,
    network_p50: f64,
    network_p95: f64,
    server_p50: f64,
    server_p95: f64,
    traced_p50: f64,
    untraced_p50: f64,
}

/// What the access path saved on the tcp runs: the pool's tally over
/// their accesses, and — probed once per bucket entry of the query — the
/// rows a bound access ships against the rows a scan of the same source
/// ships.
struct AccessPathMeasure {
    accesses: u64,
    connections_opened: u64,
    connections_reused: u64,
    bound_sources: usize,
    bound_rows_per_access: f64,
    scan_rows_per_access: f64,
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let merge_path = flag_value("--merge");
    let tcp_addr = flag_value("--tcp-addr");
    let trace_path = flag_value("--trace");

    // One world, three access paths: the store and the server are seeded
    // from the mediator's own extensions, so any answer difference is a
    // backend bug, not a data difference.
    let mediator = Mediator::new(movie_domain(), MOVIE_UNIVERSE, &MOVIE_POOL);
    let relations = snapshot_relations(mediator.database());

    let store_dir = std::env::temp_dir().join(format!("qpo-bench-backends-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = StoreBackend::open(&store_dir).expect("store opens");
    for (name, rows) in &relations {
        store.put_relation(name, rows).expect("store seeds");
    }
    store.flush().expect("store flushes");

    // Either dial the CI-spawned server (`--tcp-addr`) or spin one up
    // in-process; both serve the same seeded world.
    let mut server = None;
    let addr = match &tcp_addr {
        Some(addr) => addr.clone(),
        None => {
            let provider = MemProvider::new();
            for (name, rows) in relations {
                provider.insert(name, rows);
            }
            let spawned =
                SourceServer::serve(Arc::new(provider), 0).expect("loopback server binds");
            let addr = spawned.addr().to_string();
            server = Some(spawned);
            addr
        }
    };

    let tcp = Arc::new(TcpBackend::new(addr.clone()));
    let mediator = mediator.with_backends(
        BackendRegistry::new()
            .with("store", Arc::new(store))
            .with("tcp", tcp.clone())
            .with(
                "tcp-plain",
                Arc::new(TcpBackend::new(addr).with_tracing(false)),
            ),
    );

    let run_backend = |label: &'static str| -> (BackendMeasure, BTreeSet<_>, Vec<Vec<usize>>) {
        let mut latencies: Vec<f64> = Vec::new();
        let mut attempts = 0u64;
        let mut failed = 0usize;
        let mut answers = BTreeSet::new();
        let mut plans: Vec<Vec<usize>> = Vec::new();
        for rep in 0..REPEATS {
            let run = mediator
                .run(
                    &movie_query(),
                    &LinearCost,
                    Strategy::Greedy,
                    StopCondition::unbounded(),
                    RuntimePolicy::parallel(2),
                    &RunOptions {
                        backend: Some(label),
                        ..RunOptions::default()
                    },
                )
                .unwrap_or_else(|e| panic!("{label} run: {e}"));
            attempts += run.runtime.stats.attempts;
            failed += run.failed();
            for r in &run.runtime.reports {
                for a in &r.accesses {
                    latencies.push(a.latency);
                }
            }
            if rep == 0 {
                answers = run.runtime.answers.clone();
                plans = run.emitted_plans();
            } else if run.runtime.answers != answers {
                eprintln!("FAIL: {label} answers differ between repeats");
                std::process::exit(1);
            }
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        (
            BackendMeasure {
                label,
                attempts,
                access_p50: percentile(&latencies, 0.50),
                access_p95: percentile(&latencies, 0.95),
                failed,
                answers: answers.len(),
                answers_match_sim: true, // filled in below
                plans_match_sim: true,
            },
            answers,
            plans,
        )
    };

    let (mut sim, sim_answers, sim_plans) = run_backend("sim");
    sim.answers_match_sim = true;
    let mut results = vec![sim];
    let mut failed = false;
    for label in ["store", "tcp", "tcp-plain"] {
        let (mut m, answers, plans) = run_backend(label);
        m.answers_match_sim = answers == sim_answers;
        m.plans_match_sim = plans == sim_plans;
        if !m.answers_match_sim {
            eprintln!("FAIL: {label} answers diverge from the simulator");
            failed = true;
        }
        if !m.plans_match_sim {
            eprintln!("FAIL: {label} plan emission order diverges from the simulator");
            failed = true;
        }
        if m.failed > 0 {
            eprintln!(
                "FAIL: {label} failed {} plans against a live backend",
                m.failed
            );
            failed = true;
        }
        results.push(m);
    }

    // ── Access path ────────────────────────────────────────────────────
    // The pool's tally over the tcp runs above, then one probe per bucket
    // entry of the query: what its access ships under the subgoal's
    // binding pattern, and what a scan of the same source ships.
    let [opened, reused] = tcp.connection_counters().expect("tcp holds connections");
    let mut access_path = AccessPathMeasure {
        accesses: results[2].attempts,
        connections_opened: opened.get(),
        connections_reused: reused.get(),
        bound_sources: 0,
        bound_rows_per_access: 0.0,
        scan_rows_per_access: 0.0,
    };
    let prepared = mediator.prepare(&movie_query()).expect("query prepares");
    let grid = SourceGrid::from_instance(&prepared.instance);
    let faults = FaultConfig::disabled();
    let (mut bound_rows, mut scan_rows) = (0usize, 0usize);
    for (bucket, entries) in prepared.reformulation.buckets.iter().enumerate() {
        for (index, entry) in entries.iter().enumerate() {
            let pattern = BindingPattern::of_atom(&entry.atom).to_string();
            if pattern == SCAN_PATTERN {
                continue;
            }
            let rows_under = |pattern: &str| {
                let ctx = AccessContext {
                    pattern,
                    run: 0,
                    plan_seq: 0,
                    attempt: 0,
                    faults: &faults,
                };
                let reply = tcp
                    .access(grid.service(bucket, index), &ctx)
                    .unwrap_or_else(|e| panic!("probe {} under {pattern}: {e}", entry.source));
                reply.tuples.map_or(0, |rows| rows.len())
            };
            access_path.bound_sources += 1;
            bound_rows += rows_under(&pattern);
            scan_rows += rows_under(SCAN_PATTERN);
        }
    }
    if access_path.bound_sources > 0 {
        let n = access_path.bound_sources as f64;
        access_path.bound_rows_per_access = bound_rows as f64 / n;
        access_path.scan_rows_per_access = scan_rows as f64 / n;
    }
    if smoke {
        if access_path.connections_opened >= access_path.accesses {
            eprintln!(
                "FAIL: tcp opened {} connections for {} accesses — the pool is not reusing",
                access_path.connections_opened, access_path.accesses
            );
            failed = true;
        }
        if access_path.bound_sources == 0 || bound_rows >= scan_rows {
            eprintln!(
                "FAIL: {} bound accesses shipped {bound_rows} rows vs {scan_rows} scanned \
                 — constants are not riding the pattern",
                access_path.bound_sources
            );
            failed = true;
        }
    }

    // ── Remote tracing ─────────────────────────────────────────────────
    // One observed pass through the traced tcp client: the journal's
    // stitched remote spans split every access into network + server
    // phases, and the profiler re-checks the attribution invariants.
    let obs = Obs::with_trace();
    let mut network: Vec<f64> = Vec::new();
    let mut server_time: Vec<f64> = Vec::new();
    for _ in 0..REPEATS {
        let run = mediator
            .run(
                &movie_query(),
                &LinearCost,
                Strategy::Greedy,
                StopCondition::unbounded(),
                RuntimePolicy::parallel(2),
                &RunOptions {
                    backend: Some("tcp"),
                    obs: Some(&obs),
                    ..RunOptions::default()
                },
            )
            .unwrap_or_else(|e| panic!("traced tcp run: {e}"));
        for report in &run.runtime.reports {
            for access in &report.accesses {
                if let (Some(s), Some(n)) = (access.remote_server, access.remote_network) {
                    server_time.push(s);
                    network.push(n);
                }
            }
        }
    }
    network.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    server_time.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let jsonl = obs.journal.to_jsonl();
    if let Err(e) = qpo_obs::validate_trace(&jsonl) {
        eprintln!("FAIL: traced tcp journal does not validate: {e}");
        failed = true;
    }
    let index = ProfileIndex::from_journal(&obs.journal);
    for profile in index.runs() {
        if let Err(e) = profile.check() {
            eprintln!(
                "FAIL: stitched profile for run {} unsound: {e}",
                profile.run
            );
            failed = true;
        }
    }
    if let Some(path) = &trace_path {
        std::fs::write(path, &jsonl).unwrap_or_else(|e| panic!("writing trace {path}: {e}"));
        println!("wrote traced tcp journal to {path}");
    }
    let remote = RemoteMeasure {
        spans: network.len(),
        network_p50: percentile(&network, 0.50),
        network_p95: percentile(&network, 0.95),
        server_p50: percentile(&server_time, 0.50),
        server_p95: percentile(&server_time, 0.95),
        traced_p50: results[2].access_p50,
        untraced_p50: results[3].access_p50,
    };
    if smoke {
        // Overhead gate: tracing must be close to free. The 0.1-unit
        // (0.1 ms) absolute floor absorbs loopback scheduling noise.
        let limit = remote.untraced_p50 * 1.05 + 0.1;
        if remote.traced_p50 > limit {
            eprintln!(
                "FAIL: traced tcp p50 {:.3} exceeds untraced p50 {:.3} * 1.05 + 0.1 = {:.3}",
                remote.traced_p50, remote.untraced_p50, limit
            );
            failed = true;
        }
        if remote.spans == 0 {
            eprintln!("FAIL: traced tcp run stitched no remote spans");
            failed = true;
        }
    }

    for r in &results {
        println!(
            "{:<6} attempts {:>3}  access p50 {:>9.3} / p95 {:>9.3} units  \
             failed {:>2}  answers {:>3}  {}",
            r.label,
            r.attempts,
            r.access_p50,
            r.access_p95,
            r.failed,
            r.answers,
            if r.answers_match_sim {
                "ok"
            } else {
                "DIVERGED"
            },
        );
    }
    println!(
        "tcp connections: opened {} reused {} accesses {}; rows per access: \
         {:.1} bound vs {:.1} scan over {} bound sources",
        access_path.connections_opened,
        access_path.connections_reused,
        access_path.accesses,
        access_path.bound_rows_per_access,
        access_path.scan_rows_per_access,
        access_path.bound_sources,
    );
    println!(
        "remote  spans {:>3}  network p50 {:>9.3} / p95 {:>9.3}  \
         server p50 {:>9.3} / p95 {:>9.3}  traced p50 {:.3} vs untraced {:.3}",
        remote.spans,
        remote.network_p50,
        remote.network_p95,
        remote.server_p50,
        remote.server_p95,
        remote.traced_p50,
        remote.untraced_p50,
    );

    if let Some(path) = merge_path {
        let base = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let merged = qpo_bench::merge_section(
            &base,
            "backends",
            &render_section(&results, &remote, &access_path),
        );
        std::fs::write(&path, merged).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("merged backends section into {path}");
    }

    drop(server);
    let _ = std::fs::remove_dir_all(&store_dir);
    if failed {
        std::process::exit(1);
    }
}

fn render_section(
    results: &[BackendMeasure],
    remote: &RemoteMeasure,
    access_path: &AccessPathMeasure,
) -> String {
    let mut s = String::from("\"backends\": {\n");
    let _ = writeln!(
        s,
        "    \"source\": \"scripts/bench.sh (crates/bench/src/bin/bench_backends.rs)\","
    );
    let _ = writeln!(
        s,
        "    \"note\": \"movie domain, greedy/linear-cost, {REPEATS} runs per backend; \
         latencies in virtual units (sim draws them; store/tcp map wall time at 1 unit/ms)\","
    );
    let _ = writeln!(s, "    \"runs\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 == results.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "      {{ \"backend\": \"{}\", \"attempts\": {}, \"access_p50\": {:.3}, \
             \"access_p95\": {:.3}, \"failed_plans\": {}, \"answers\": {}, \
             \"answers_match_sim\": {} }}{comma}",
            r.label,
            r.attempts,
            r.access_p50,
            r.access_p95,
            r.failed,
            r.answers,
            r.answers_match_sim,
        );
    }
    let _ = writeln!(s, "    ],");
    let _ = writeln!(
        s,
        "    \"remote_tracing\": {{ \"spans\": {}, \"network_p50\": {:.3}, \
         \"network_p95\": {:.3}, \"server_p50\": {:.3}, \"server_p95\": {:.3}, \
         \"traced_p50\": {:.3}, \"untraced_p50\": {:.3} }},",
        remote.spans,
        remote.network_p50,
        remote.network_p95,
        remote.server_p50,
        remote.server_p95,
        remote.traced_p50,
        remote.untraced_p50,
    );
    let _ = writeln!(
        s,
        "    \"access_path\": {{ \"tcp_accesses\": {}, \"connections_opened\": {}, \
         \"connections_reused\": {}, \"bound_sources\": {}, \
         \"rows_per_access_bound\": {:.1}, \"rows_per_access_scan\": {:.1} }},",
        access_path.accesses,
        access_path.connections_opened,
        access_path.connections_reused,
        access_path.bound_sources,
        access_path.bound_rows_per_access,
        access_path.scan_rows_per_access,
    );
    let _ = writeln!(
        s,
        "    \"gate\": \"answers and plan order bit-identical to sim on every \
         backend; zero failed plans against live backends; traced tcp p50 \
         within 5% (+0.1 units) of untraced; tcp connections opened < accesses; \
         bound accesses ship fewer rows than scans\""
    );
    s.push_str("  }");
    s
}
