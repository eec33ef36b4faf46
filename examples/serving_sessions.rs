//! The serving layer end to end: one shared mediator, many sessions, a
//! canonicalized reformulation cache.
//!
//! Run with `cargo run --example serving_sessions`. The example serves
//! the Figure 1 movie query three times — cold, repeated verbatim, and
//! under a variable renaming — then pulls plans interactively from a
//! session and prints the cache and session telemetry the mediator
//! collected along the way.
//!
//! With `--serve <port>` (use port `0` for an ephemeral one) it
//! additionally enables trace journaling, mounts the introspection
//! server on the mediator's observability bundle after the demo, prints
//! the endpoint URLs, and blocks until Enter is pressed — so you can
//! `curl` the live `/metrics`, `/traces`, `/sessions`, and `/explain`
//! views while the process is up.
//!
//! With `--memo` the pull-based session runs twice over one shared
//! [`ExecutionMemo`]: the first session populates the source-access and
//! partial-join memos, the second replays and seeds from them, and the
//! example prints the reuse counters (the same `memo_hits` /
//! `subplans_reused` the `/sessions` endpoint exposes).
//!
//! With `--profile` it enables trace journaling and, after the demo,
//! reconstructs the span-tree profile of the pull-based session from the
//! journal alone and prints the `EXPLAIN ANALYZE`-style report — the
//! same text the `/profile` introspection endpoint serves. The session
//! runs on the simulator backend, so there are (virtual) source
//! latencies to attribute.

use query_plan_ordering::prelude::*;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let serve_port: Option<u16> = args
        .iter()
        .position(|a| a == "--serve")
        .map(|i| args.get(i + 1).and_then(|p| p.parse().ok()).unwrap_or(0));
    let with_memo = args.iter().any(|a| a == "--memo");
    let with_profile = args.iter().any(|a| a == "--profile");

    // Journaling on when serving or profiling, so the trace-derived
    // views (/traces, /explain, /profile, the printed report) have
    // content.
    let obs = if serve_port.is_some() || with_profile {
        Obs::with_trace()
    } else {
        Obs::new()
    };
    let mediator = Mediator::new(movie_domain(), MOVIE_UNIVERSE, &["ford"]).with_obs(&obs);
    let query = movie_query();

    // ---- Serve the same query shape three ways -------------------------
    println!("== one mediator, three structurally identical queries\n");
    let cold = mediator
        .answer_until(&query, &Coverage, Strategy::Pi, StopCondition::answers(3))
        .unwrap();
    println!(
        "cold:     {} plans executed, {} answers (cache: {:?} generations)",
        cold.executed(),
        cold.answers.len(),
        mediator.cache_stats().generations
    );

    let warm = mediator
        .answer_until(&query, &Coverage, Strategy::Pi, StopCondition::answers(3))
        .unwrap();
    println!(
        "repeated: {} plans executed, {} answers (served from cache)",
        warm.executed(),
        warm.answers.len()
    );

    let renamed =
        parse_query("q(Movie, Rev) :- play_in(ford, Movie), review_of(Rev, Movie)").unwrap();
    let via_rename = mediator
        .answer_until(&renamed, &Coverage, Strategy::Pi, StopCondition::answers(3))
        .unwrap();
    println!(
        "renamed:  {} plans executed, {} answers (canonical key collides)\n",
        via_rename.executed(),
        via_rename.answers.len()
    );

    // ---- Pull-based session: the client decides after every plan -------
    println!("== pull-based session (anytime interaction of §1)\n");
    let prepared = mediator.prepare(&query).unwrap();
    println!(
        "prepared plan space: {} plans, canonical form {}",
        prepared.plan_count(),
        prepared.canonical.query()
    );
    // A session is a run: its trace is the journal's next `run_started`
    // scope, opened at the first pull.
    let session_run = mediator.profiles().runs().len();
    let mut session = QuerySession::new(&mediator, &prepared, &Coverage, Strategy::Pi)
        .unwrap()
        .with_backend("sim")
        .unwrap();
    while let Some(report) = session.next_report() {
        println!(
            "  plan {:?} via {:?}: {} new tuples ({} total)",
            report.ordered.plan, report.sources, report.new_tuples, report.cumulative
        );
        if report.cumulative >= 5 {
            println!(
                "  ... satisfied after {} plans, stopping early",
                session.plans_emitted()
            );
            break;
        }
    }
    drop(session); // seals the run's trace and closes the board entry

    // ---- Shared-execution memo across sessions (opt-in) ----------------
    if with_memo {
        println!("\n== shared execution memo across two sessions (--memo)\n");
        let memo = ExecutionMemo::new();
        for label in ["first ", "second"] {
            let mut s = QuerySession::new(&mediator, &prepared, &Coverage, Strategy::Pi)
                .unwrap()
                .with_memo(&memo);
            while s.next_report().is_some() {}
            println!(
                "{label} session: {} plans, memo hits {}, subplans reused {}",
                s.plans_emitted(),
                s.memo_hits(),
                s.subplans_reused()
            );
        }
        println!(
            "memo now holds {} subplan prefixes (~{} bytes across all layers)",
            memo.subplans.len(),
            memo.approx_bytes()
        );
    }

    // ---- What the mediator observed ------------------------------------
    let stats = mediator.cache_stats();
    println!(
        "\ncache: {} hits / {} misses / {} generations (hit rate {:.2})",
        stats.hits,
        stats.misses,
        stats.generations,
        stats.hit_rate()
    );
    println!(
        "sessions opened: {}",
        obs.registry.counter_total("qpo_sessions_total")
    );
    assert_eq!(
        stats.generations, 1,
        "one query shape: plan generation ran exactly once"
    );

    // ---- Span-tree profile, reconstructed from the trace (opt-in) -------
    if with_profile {
        println!("\n== span-tree profile (--profile)\n");
        // The session above ran on the simulator: its trace carries the
        // (virtual) source latencies and attempts a profile attributes.
        let index = ProfileIndex::from_journal(&obs.journal);
        let profile = &index.runs()[session_run];
        profile
            .check()
            .expect("reconstructed span tree is well-formed");
        let makespan = profile.makespan.expect("the run was sealed");
        assert_eq!(
            profile.critical_path.to_bits(),
            makespan.to_bits(),
            "reconstruction bit-equals the run's reported makespan"
        );
        println!("{}", profile.render_text());
    }

    // ---- Live introspection (opt-in) ------------------------------------
    if let Some(port) = serve_port {
        let server = mediator
            .spawn_introspection(port)
            .expect("introspection server binds");
        let addr = server.addr();
        println!("\n== introspection server listening on http://{addr}");
        for endpoint in ["healthz", "metrics", "traces", "sessions"] {
            println!("   curl http://{addr}/{endpoint}");
        }
        println!("   curl 'http://{addr}/explain?plan=0,0'");
        println!("press Enter to stop the server");
        let mut line = String::new();
        let _ = std::io::stdin().read_line(&mut line);
    }
}
