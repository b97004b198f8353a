//! Serving load generator: drives a [`ServeEngine`] (in process) or a
//! TCP front end (over real sockets) with concurrent clients and reports
//! throughput + latency percentiles on grep-stable `serve_*` lines.
//!
//! ```text
//! load_gen [--mode inproc|tcp] [--requests N] [--concurrency C]
//!          [--batch B] [--users N] [--items N] [--dim D]
//!          [--addr HOST:PORT | --with-server] [--shutdown]
//!          [--p99-budget-us N]
//! ```
//!
//! `--mode inproc` (default) runs the **same** saturating closed-loop
//! request stream twice — once with `max_batch = 1` and once with
//! `--batch` — and prints both arms and their ratio. Both arms score on
//! every core (callers score their own batches), so the ratio is what
//! batching adds at saturation, not a gate: the exit code reports request
//! errors only.
//!
//! `--mode tcp` fires a mixed stream (recommend / score_items / stats)
//! at `--addr`, or at a front end it starts itself (`--with-server`);
//! `--shutdown` sends a shutdown frame afterwards and `--p99-budget-us`
//! gates the exit code on tail latency — together they make the CI smoke:
//! start server, 1k mixed requests, check p99, clean shutdown.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bsl_linalg::Matrix;
use bsl_models::{EvalScore, ModelArtifact};
use bsl_serve::{BatchPolicy, RecommendRequest, ServeClient, ServeEngine, ServeState, TcpFrontend};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Config {
    mode: Mode,
    requests: usize,
    concurrency: usize,
    batch: usize,
    n_users: usize,
    n_items: usize,
    dim: usize,
    addr: Option<String>,
    with_server: bool,
    shutdown: bool,
    p99_budget_us: Option<u64>,
    k: usize,
}

#[derive(PartialEq)]
enum Mode {
    Inproc,
    Tcp,
}

fn usage() -> ! {
    eprintln!("usage: load_gen [--mode inproc|tcp] [--requests N] [--concurrency C] [--batch B]");
    eprintln!("                [--users N] [--items N] [--dim D] [--k K]");
    eprintln!("                [--addr HOST:PORT | --with-server] [--shutdown]");
    eprintln!("                [--p99-budget-us N]");
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut cfg = Config {
        mode: Mode::Inproc,
        // Defaults are the acceptance workload: a catalogue big enough
        // (32k × d64 ≈ 8 MiB f32) that per-request scoring is
        // memory-bandwidth-bound, which is exactly what the batched tile
        // pass amortizes. Concurrency 16 keeps every lane busy, so
        // batches form.
        requests: 1024,
        concurrency: 16,
        batch: 32,
        n_users: 2048,
        n_items: 32768,
        dim: 64,
        addr: None,
        with_server: false,
        shutdown: false,
        p99_budget_us: None,
        k: 10,
    };
    let mut it = std::env::args().skip(1);
    fn num<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>) -> T {
        it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage())
    }
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mode" => {
                cfg.mode = match it.next().as_deref() {
                    Some("inproc") => Mode::Inproc,
                    Some("tcp") => Mode::Tcp,
                    _ => usage(),
                }
            }
            "--requests" => cfg.requests = num(&mut it),
            "--concurrency" => cfg.concurrency = std::cmp::max(1, num(&mut it)),
            "--batch" => cfg.batch = std::cmp::max(1, num(&mut it)),
            "--users" => cfg.n_users = num(&mut it),
            "--items" => cfg.n_items = num(&mut it),
            "--dim" => cfg.dim = num(&mut it),
            "--k" => cfg.k = std::cmp::max(1, num(&mut it)),
            "--addr" => cfg.addr = Some(it.next().unwrap_or_else(|| usage())),
            "--with-server" => cfg.with_server = true,
            "--shutdown" => cfg.shutdown = true,
            "--p99-budget-us" => cfg.p99_budget_us = Some(num(&mut it)),
            _ => usage(),
        }
    }
    if cfg.addr.is_some() && cfg.with_server {
        eprintln!("--addr and --with-server are mutually exclusive");
        usage();
    }
    cfg
}

fn make_state(cfg: &Config) -> ServeState {
    let mut rng = StdRng::seed_from_u64(99);
    let users = Matrix::gaussian(cfg.n_users, cfg.dim, 1.0, &mut rng);
    let items = Matrix::gaussian(cfg.n_items, cfg.dim, 1.0, &mut rng);
    ServeState::new(ModelArtifact::from_embeddings("MF", &users, &items, EvalScore::Dot))
}

struct RunStats {
    qps: f64,
    p50_us: u64,
    p99_us: u64,
    errors: usize,
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn summarize(wall: Duration, mut lat_us: Vec<u64>, errors: usize) -> RunStats {
    lat_us.sort_unstable();
    RunStats {
        qps: lat_us.len() as f64 / wall.as_secs_f64(),
        p50_us: percentile(&lat_us, 0.50),
        p99_us: percentile(&lat_us, 0.99),
        errors,
    }
}

/// Drives `engine` with `cfg.concurrency` threads until `requests`
/// requests have completed; returns wall-clock + per-request latencies.
fn drive_inproc(engine: &Arc<ServeEngine>, requests: usize, cfg: &Config) -> RunStats {
    let per_thread = requests.div_ceil(cfg.concurrency);
    let n_users = cfg.n_users as u32;
    let start = Instant::now();
    let mut lat_us: Vec<u64> = Vec::with_capacity(per_thread * cfg.concurrency);
    let mut errors = 0usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.concurrency)
            .map(|t| {
                let engine = Arc::clone(engine);
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(per_thread);
                    let mut errs = 0usize;
                    for i in 0..per_thread {
                        let u = ((t * 7919 + i * 31) as u32) % n_users;
                        let t0 = Instant::now();
                        let ok = engine
                            .recommend(ServeEngine::DEFAULT_TENANT, RecommendRequest::new(u, cfg.k))
                            .is_ok();
                        lat.push(t0.elapsed().as_micros() as u64);
                        errs += usize::from(!ok);
                    }
                    (lat, errs)
                })
            })
            .collect();
        for h in handles {
            let (lat, errs) = h.join().expect("client thread");
            lat_us.extend(lat);
            errors += errs;
        }
    });
    summarize(start.elapsed(), lat_us, errors)
}

fn run_inproc(cfg: &Config) -> i32 {
    eprintln!(
        "inproc: {} requests, concurrency {}, catalogue {}x{} d={}, k={}",
        cfg.requests, cfg.concurrency, cfg.n_users, cfg.n_items, cfg.dim, cfg.k
    );

    let unbatched_engine = ServeEngine::single_tenant(make_state(cfg), BatchPolicy::unbatched());
    // Warm-up pass so thread spawn + first-touch costs stay out of both
    // measured runs equally.
    let warm = cfg.requests / 8 + 1;
    drive_inproc(&unbatched_engine, warm, cfg);
    let unbatched = drive_inproc(&unbatched_engine, cfg.requests, cfg);
    unbatched_engine.shutdown();

    let policy = BatchPolicy { max_batch: cfg.batch, ..BatchPolicy::default() };
    let batched_engine = ServeEngine::single_tenant(make_state(cfg), policy);
    drive_inproc(&batched_engine, warm, cfg);
    let batched = drive_inproc(&batched_engine, cfg.requests, cfg);
    let stats = batched_engine.stats();
    batched_engine.shutdown();

    let speedup = batched.qps / unbatched.qps;
    eprintln!(
        "batched run: {} batches for {} requests (avg batch {:.1}, max {})",
        stats.batches, stats.requests, stats.avg_batch, stats.max_batch
    );
    println!(
        "serve_qps unbatched={:.0} batched={:.0} speedup={speedup:.2} concurrency={}",
        unbatched.qps, batched.qps, cfg.concurrency
    );
    println!("serve_p50_us unbatched={} batched={}", unbatched.p50_us, batched.p50_us);
    println!("serve_p99_us unbatched={} batched={}", unbatched.p99_us, batched.p99_us);

    if unbatched.errors + batched.errors > 0 {
        eprintln!("FAIL: {} request errors", unbatched.errors + batched.errors);
        return 1;
    }
    0
}

fn run_tcp(cfg: &Config) -> i32 {
    // Either target a running server or start one ourselves.
    let mut server = None;
    let addr = match (&cfg.addr, cfg.with_server) {
        (Some(a), _) => a.clone(),
        (None, true) => {
            let policy = BatchPolicy { max_batch: cfg.batch, ..BatchPolicy::default() };
            let engine = ServeEngine::single_tenant(make_state(cfg), policy);
            let fe =
                TcpFrontend::start(Arc::clone(&engine), "127.0.0.1:0").expect("binding loopback");
            let addr = fe.local_addr().to_string();
            server = Some((fe, engine));
            addr
        }
        (None, false) => {
            eprintln!("--mode tcp needs --addr or --with-server");
            usage();
        }
    };
    eprintln!(
        "tcp: {} mixed requests, concurrency {}, target {addr}",
        cfg.requests, cfg.concurrency
    );

    let per_thread = cfg.requests.div_ceil(cfg.concurrency);
    let n_users = cfg.n_users as u32;
    let n_items = cfg.n_items as u32;
    let start = Instant::now();
    let mut lat_us: Vec<u64> = Vec::new();
    let mut errors = 0usize;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..cfg.concurrency)
            .map(|t| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = ServeClient::connect(&*addr).expect("connect");
                    let mut lat = Vec::with_capacity(per_thread);
                    let mut errs = 0usize;
                    for i in 0..per_thread {
                        let u = ((t * 7919 + i * 31) as u32) % n_users;
                        let t0 = Instant::now();
                        // Mixed stream: mostly recommend, some score_items,
                        // an occasional stats poll.
                        let ok = match i % 16 {
                            15 => client.stats().is_ok(),
                            7 => {
                                let items = [u % n_items, (u * 3 + 1) % n_items];
                                client.score_items("default", u, &items).is_ok()
                            }
                            _ => {
                                client.recommend("default", RecommendRequest::new(u, cfg.k)).is_ok()
                            }
                        };
                        lat.push(t0.elapsed().as_micros() as u64);
                        errs += usize::from(!ok);
                    }
                    (lat, errs)
                })
            })
            .collect();
        for h in handles {
            let (lat, errs) = h.join().expect("client thread");
            lat_us.extend(lat);
            errors += errs;
        }
    });
    let stats = summarize(start.elapsed(), lat_us, errors);

    println!(
        "serve_tcp_qps qps={:.0} concurrency={} requests={}",
        stats.qps, cfg.concurrency, cfg.requests
    );
    println!("serve_tcp_p50_us {}", stats.p50_us);
    println!("serve_tcp_p99_us {}", stats.p99_us);

    let mut code = 0;
    if stats.errors > 0 {
        eprintln!("FAIL: {} request errors", stats.errors);
        code = 1;
    }
    if let Some(budget) = cfg.p99_budget_us {
        if stats.p99_us > budget {
            eprintln!("FAIL: p99 {}us over budget {budget}us", stats.p99_us);
            code = 1;
        }
    }
    if cfg.shutdown {
        match ServeClient::connect(&*addr).and_then(|mut c| {
            c.shutdown_server().map_err(|e| std::io::Error::other(e.to_string()))?;
            Ok(())
        }) {
            Ok(()) => eprintln!("server acknowledged shutdown"),
            Err(e) => {
                eprintln!("FAIL: shutdown request failed: {e}");
                code = 1;
            }
        }
    }
    if let Some((mut fe, engine)) = server {
        fe.stop();
        engine.shutdown();
        eprintln!("server stopped cleanly");
    }
    code
}

fn main() {
    let cfg = parse_args();
    let code = match cfg.mode {
        Mode::Inproc => run_inproc(&cfg),
        Mode::Tcp => run_tcp(&cfg),
    };
    std::process::exit(code);
}
