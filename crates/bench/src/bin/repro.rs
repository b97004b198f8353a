//! The reproduction driver:
//! `repro <experiment> [--scale quick|full] [--threads N]`
//! `repro --save <path> | --serve <path>`.
//!
//! One subcommand per table/figure of the paper's evaluation section (see
//! README's "Reproducing the paper's figures and tables" for the index). `all` runs everything in order.
//! `--threads` feeds [`TrainConfig::threads`](bsl_core::TrainConfig) for
//! every experiment (`0` = one worker per core; default `1` keeps outputs
//! bit-reproducible across machines). An option or experiment name the
//! driver does not know is rejected (usage, exit code 2) before anything
//! runs.
//!
//! `--save <path>` trains MF + BSL and writes the exported
//! `ModelArtifact` to disk; `--serve <path>` loads it back and prints
//! top-10 recommendations for a few users — the on-disk round trip of the
//! train→serve boundary. They may be combined in one invocation (save
//! runs first) and need no experiment name. `--ann` makes `--save` export
//! the format-v2 production configuration (int8-quantized item table +
//! IVF index); `--nprobe N` makes `--serve` probe `N` inverted lists per
//! query instead of the index's default (`N ≥ nlist` serves exactly).
//!
//! The online counterparts: `--serve-tcp <path>` serves the artifact over
//! the framed TCP protocol (batching `ServeEngine` behind a
//! `TcpFrontend`) until stopped; `--swap <path> --addr …` hot-deploys a
//! new artifact into the running server with zero downtime; `--stop
//! --addr …` shuts it down remotely.

use bsl_bench::experiments::*;
use bsl_bench::Scale;

const EXPERIMENTS: &[&str] = &[
    "table1", "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig12",
    "fig13", "table2", "table3", "table4", "table5",
];

fn usage() -> ! {
    eprintln!("usage: repro <experiment|all> [--scale quick|full] [--threads N]");
    eprintln!("       repro --save <artifact-path> [--ann]");
    eprintln!("           train MF+BSL, export + save the artifact; --ann additionally");
    eprintln!("           quantizes the item table to int8 and attaches an IVF index (format v2)");
    eprintln!("       repro --serve <artifact-path> [--nprobe N]");
    eprintln!("           load an artifact, print top-10 per user; --nprobe N probes N");
    eprintln!("           inverted lists per query (needs an --ann artifact; N >= nlist = exact)");
    eprintln!("       repro --serve-tcp <artifact-path> [--addr HOST:PORT]");
    eprintln!("           serve the artifact over the framed TCP protocol until stopped");
    eprintln!("       repro --swap <artifact-path> --addr HOST:PORT");
    eprintln!("           hot-deploy a new artifact to a running --serve-tcp server");
    eprintln!("       repro --stop --addr HOST:PORT");
    eprintln!("           shut a running --serve-tcp server down remotely");
    eprintln!("       (--addr defaults to {})", serve_tcp::DEFAULT_ADDR);
    eprintln!("experiments: {}", EXPERIMENTS.join(", "));
    eprintln!(
        "(fig2 is the paper's conceptual diagram — nothing to run; fig11 is covered by fig10)"
    );
    std::process::exit(2);
}

fn dispatch(name: &str, scale: Scale) {
    let start = std::time::Instant::now();
    match name {
        "table1" => table1::run(scale),
        "fig1" => fig1::run_exp(scale),
        "fig3" => fig3::run_exp(scale),
        "fig4" => fig4::run_exp(scale),
        "fig5" => fig5::run_exp(scale),
        "fig6" => fig6::run_exp(scale),
        "fig7" => fig7::run_exp(scale),
        "fig8" => fig8::run_exp(scale),
        "fig9" => fig9::run_exp(scale),
        "fig10" | "fig11" => fig10::run_exp(scale),
        "fig12" => fig12::run_exp(scale),
        "fig13" => fig13::run_exp(scale),
        "table2" => table2::run_exp(scale),
        "table3" => table3::run_exp(scale),
        "table4" => table4::run_exp(scale),
        "table5" => table5::run_exp(scale),
        other => unreachable!("`{other}` passed the name check in main"),
    }
    eprintln!("[{name} done in {:.1}s]", start.elapsed().as_secs_f64());
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let mut scale = Scale::Quick;
    let mut names: Vec<String> = Vec::new();
    let mut save_path: Option<String> = None;
    let mut serve_path: Option<String> = None;
    let mut serve_tcp_path: Option<String> = None;
    let mut swap_path: Option<String> = None;
    let mut stop = false;
    let mut addr = serve_tcp::DEFAULT_ADDR.to_string();
    let mut ann = false;
    let mut nprobe: Option<usize> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--save" => save_path = Some(it.next().unwrap_or_else(|| usage())),
            "--serve" => serve_path = Some(it.next().unwrap_or_else(|| usage())),
            "--serve-tcp" => serve_tcp_path = Some(it.next().unwrap_or_else(|| usage())),
            "--swap" => swap_path = Some(it.next().unwrap_or_else(|| usage())),
            "--stop" => stop = true,
            "--addr" => addr = it.next().unwrap_or_else(|| usage()),
            "--ann" => ann = true,
            "--nprobe" => {
                let v = it.next().unwrap_or_else(|| usage());
                let n: usize = v.parse().unwrap_or_else(|_| usage());
                nprobe = Some(n.max(1));
            }
            "--scale" => {
                let v = it.next().unwrap_or_else(|| usage());
                scale = Scale::parse(&v).unwrap_or_else(|| usage());
            }
            "--threads" => {
                let v = it.next().unwrap_or_else(|| usage());
                let n: usize = v.parse().unwrap_or_else(|_| usage());
                common::set_default_threads(n);
            }
            other if other.starts_with("--") => {
                eprintln!("unknown option `{other}`");
                usage();
            }
            other => names.push(other.to_string()),
        }
    }
    // Checked here, not in `dispatch`: a typo must not cost the one-shot
    // operations and every experiment named before it.
    let known = |n: &str| n == "all" || n == "fig11" || EXPERIMENTS.contains(&n);
    if let Some(bad) = names.iter().find(|n| !known(n)) {
        eprintln!("unknown experiment `{bad}`");
        usage();
    }
    if ann && save_path.is_none() {
        eprintln!("--ann only applies to --save");
        usage();
    }
    if nprobe.is_some() && serve_path.is_none() {
        eprintln!("--nprobe only applies to --serve");
        usage();
    }
    if let Some(path) = &save_path {
        serve_demo::save(path, scale, ann);
    }
    if let Some(path) = &serve_path {
        serve_demo::serve(path, nprobe);
    }
    if let Some(path) = &swap_path {
        serve_tcp::swap(path, &addr);
    }
    if stop {
        serve_tcp::stop(&addr);
    }
    // --serve-tcp blocks until stopped, so it runs after the one-shot ops.
    if let Some(path) = &serve_tcp_path {
        serve_tcp::serve_tcp(path, &addr);
    }
    if names.is_empty() {
        if save_path.is_some()
            || serve_path.is_some()
            || serve_tcp_path.is_some()
            || swap_path.is_some()
            || stop
        {
            return;
        }
        usage();
    }
    for name in names {
        if name == "all" {
            for &e in EXPERIMENTS {
                dispatch(e, scale);
            }
        } else {
            dispatch(&name, scale);
        }
    }
}
