//! `qpo-source-server` — a standalone source server speaking the
//! `qpo_runtime::wire` protocol over loopback TCP.
//!
//! By default it seeds the movie domain's materialized extensions
//! (`populate_sources(movie_domain(), MOVIE_POOL)`), so a `TcpBackend`
//! pointed at it returns answer sets bit-identical to the simulator of a
//! mediator built over the same pool. Pass `--dir` to serve (and persist
//! into) a `StoreBackend` directory instead of a memory provider.
//!
//! ```text
//! qpo-source-server [--port N] [--dir PATH] [--addr-file PATH] [--quiet]
//! qpo-source-server --metrics ADDR
//! ```
//!
//! `--port 0` (the default) binds any free loopback port; the bound
//! address is printed on stdout (`listening on 127.0.0.1:PORT`) and,
//! with `--addr-file`, written to a file CI scripts can poll. The server
//! runs until killed.
//!
//! `--metrics ADDR` is a one-shot client instead of a server: it dials a
//! running server, prints its span journal — JSONL, one `server_span`
//! event per served scan, a trace `qpo_obs::read_jsonl` reads — and exits.

use qpo_catalog::domains::{movie_domain, MOVIE_POOL};
use qpo_exec::{populate_sources, snapshot_relations};
use qpo_runtime::{fetch_server_trace, MemProvider, RelationProvider, SourceServer, StoreBackend};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Options {
    port: u16,
    dir: Option<String>,
    addr_file: Option<String>,
    quiet: bool,
    metrics: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        port: 0,
        dir: None,
        addr_file: None,
        quiet: false,
        metrics: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--port" => {
                let v = args.next().ok_or("--port needs a value")?;
                opts.port = v.parse().map_err(|_| format!("bad port {v:?}"))?;
            }
            "--dir" => opts.dir = Some(args.next().ok_or("--dir needs a value")?),
            "--addr-file" => opts.addr_file = Some(args.next().ok_or("--addr-file needs a value")?),
            "--quiet" => opts.quiet = true,
            "--metrics" => opts.metrics = Some(args.next().ok_or("--metrics needs an address")?),
            "--help" | "-h" => {
                println!(
                    "usage: qpo-source-server [--port N] [--dir PATH] [--addr-file PATH] [--quiet]\n       qpo-source-server --metrics ADDR"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("qpo-source-server: {e}");
            return ExitCode::FAILURE;
        }
    };

    if let Some(addr) = &opts.metrics {
        // One-shot metrics client: dump a running server's span journal.
        match fetch_server_trace(addr, Duration::from_secs(2)) {
            Ok(dump) => {
                print!("{dump}");
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("qpo-source-server: cannot fetch trace from {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Seed the canonical movie-domain extensions so remote answers match
    // the simulator's bit for bit.
    let db = populate_sources(&movie_domain(), &MOVIE_POOL);
    let relations = snapshot_relations(&db);
    let provider: Arc<dyn RelationProvider> = match &opts.dir {
        Some(dir) => {
            let store = match StoreBackend::open(dir) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("qpo-source-server: cannot open store {dir:?}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            // Only seed relations the store doesn't already hold, so a
            // restarted server keeps serving what it persisted.
            for (name, rows) in &relations {
                if store.relation(name).is_none() {
                    if let Err(e) = store.put_relation(name, rows) {
                        eprintln!("qpo-source-server: seeding {name:?} failed: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            if let Err(e) = store.flush() {
                eprintln!("qpo-source-server: flush failed: {e}");
                return ExitCode::FAILURE;
            }
            Arc::new(store)
        }
        None => {
            let mem = MemProvider::new();
            for (name, rows) in relations {
                mem.insert(name, rows);
            }
            Arc::new(mem)
        }
    };

    let server = match SourceServer::serve(provider, opts.port) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("qpo-source-server: bind failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let addr = server.addr();
    if !opts.quiet {
        println!("listening on {addr}");
    }
    if let Some(path) = &opts.addr_file {
        // Write-then-rename so pollers never read a half-written address.
        let tmp = format!("{path}.tmp");
        if let Err(e) =
            std::fs::write(&tmp, addr.to_string()).and_then(|()| std::fs::rename(&tmp, path))
        {
            eprintln!("qpo-source-server: cannot write addr file {path:?}: {e}");
            return ExitCode::FAILURE;
        }
    }
    // Serve until killed: the server accepts and serves on threads of its
    // own (`qpo_obs::serve::ConnectionServer`).
    loop {
        std::thread::park();
    }
}
