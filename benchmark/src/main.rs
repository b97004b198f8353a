//! `bsl-duet`: the duet benchmark's binary. `../README.md` explains the
//! method, the metrics and how to read them; `../run.sh` is the entry point.
//!
//! ```text
//! bsl-duet --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//! bsl-duet --smoke [--out DIR]          every workload, briefly; not comparable
//! bsl-duet --aa N [--stress] [--workload NAME] [--seconds S]
//! bsl-duet --benchmark-json             prints BENCHMARK.json
//! ```

mod aa;
mod duet;
mod host;
mod inputs;
mod metrics;
mod probes;
mod sides;
mod spec;
mod stats;
mod trace;
mod workloads;

use duet::Outcome;
use host::{Calibration, Host};
use probes::Values;
use sides::{product, reference};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;
use workloads::{Kind, Workload, FULL_SECONDS, WORKLOADS};

fn usage() -> ! {
    eprintln!("usage: bsl-duet --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]");
    eprintln!("       bsl-duet --smoke [--out DIR]");
    eprintln!("       bsl-duet --aa N [--stress] [--workload NAME] [--seconds S] [--out DIR]");
    eprintln!("       bsl-duet --benchmark-json");
    eprintln!("workloads: {}", WORKLOADS.map(|w| w.name).join(" "));
    std::process::exit(2);
}

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let i = self.0.iter().position(|a| a == name)?;
        Some(self.0.get(i + 1).and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()))
    }
}

/// Seconds of a smoke run per workload: all four finish in under 25 s.
const SMOKE_SECONDS: f64 = 4.0;
/// Samples of the host's compute loop taken at each of three points of a
/// traced run.
const NOISE_SAMPLES: usize = 20;

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    if args.flag("--benchmark-json") {
        print!("{}", metrics::benchmark_json());
        return;
    }
    if args.flag("--burn") {
        host::burn();
    }
    let out: PathBuf = args.value("--out").unwrap_or_else(|| PathBuf::from("benchmark/out"));
    let workload = args.value::<String>("--workload").map(|name| {
        Workload::find(&name).unwrap_or_else(|| {
            eprintln!("unknown workload {name}");
            usage()
        })
    });
    let seconds: f64 = args.value("--seconds").unwrap_or(FULL_SECONDS);

    if let Some(n) = args.value::<usize>("--aa") {
        let exe = std::env::current_exe().expect("own path");
        let chosen: Vec<&Workload> = workload.map_or(WORKLOADS.iter().collect(), |w| vec![w]);
        let ok = aa::run(&chosen, n.max(2), args.flag("--stress"), seconds, &exe, &out);
        std::process::exit(if ok { 0 } else { 1 });
    }
    if args.flag("--smoke") {
        let mut ok = true;
        for w in &WORKLOADS {
            ok &= run_one(w, 1, SMOKE_SECONDS, false, &out);
        }
        eprintln!("smoke: {SMOKE_SECONDS} s per workload; these numbers are not comparable");
        std::process::exit(if ok { 0 } else { 1 });
    }
    let Some(w) = workload else { usage() };
    let seed = args.value("--seed").unwrap_or(1);
    let trace = match args.value::<u8>("--trace") {
        None | Some(0) => false,
        Some(1) => true,
        Some(_) => usage(),
    };
    let ok = run_one(w, seed, seconds, trace, &out);
    std::process::exit(if ok { 0 } else { 1 });
}

/// One run of one workload: prints the report on stderr and the result line
/// last on stdout, writes `result-*.json` (and `trace.json` when traced)
/// under `out`. Returns whether the outputs were correct.
fn run_one(w: &Workload, seed: u64, seconds: f64, trace: bool, out: &Path) -> bool {
    let started = Instant::now();
    std::fs::create_dir_all(out).expect("creating the output directory");
    let scratch = out.join(format!("tmp-{}", std::process::id()));
    let host = Host::detect();
    let mut cal = Calibration::new();
    let mut tracer = Tracer::new(trace);
    if trace {
        cal.sample(NOISE_SAMPLES);
    }

    let plan = w.plan(seconds, trace);
    let o = match &w.kind {
        Kind::Train(spec) => {
            duet::run_train::<product::Train, reference::Train>(spec, seed, &plan, &mut tracer)
        }
        Kind::Serve(spec, load) => duet::run_serve::<product::Serve, reference::Serve>(
            spec,
            load,
            seed,
            &plan,
            &scratch,
            &mut tracer,
        ),
    };

    let mut values = Values::new();
    if trace {
        cal.sample(NOISE_SAMPLES);
        probes::run(&w.probe_shapes(), seed, &scratch, &mut tracer, &mut values);
        cal.sample(NOISE_SAMPLES);
        context_metrics(&o, &cal, &tracer, &mut values);
    } else {
        end_to_end_metrics(w, &o, &mut values);
    }
    let _ = std::fs::remove_dir_all(&scratch);

    let comparable = seconds == FULL_SECONDS;
    let line = result_line(&o, &values);
    let header = format!(
        "\"workload\": \"{}\", \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {}, \
         \"comparable\": {comparable}, \"tail_percentile\": {:.2}, \"host\": {}",
        w.name,
        u8::from(trace),
        o.tail_pct,
        host.json()
    );
    if trace {
        tracer.write_json(&out.join("trace.json"), &header).expect("writing trace.json");
    }
    let file = out.join(format!("result-{}-trace{}.json", w.name, u8::from(trace)));
    std::fs::write(&file, format!("{{{header},\n\"result\": {line}}}\n")).expect("writing result");

    report(
        w,
        seed,
        seconds,
        trace,
        comparable,
        &host,
        &o,
        &values,
        started.elapsed().as_secs_f64(),
    );
    println!("{line}");
    o.correct
}

fn end_to_end_metrics(w: &Workload, o: &Outcome, v: &mut Values) {
    v.insert("setup_s", o.setup_x * w.ref_setup_s);
    v.insert("speed_x", o.speed_x);
    v.insert("op_p50_x", o.op_p50_x);
    v.insert("op_tail_x", o.op_tail_x);
    v.insert("quality", o.quality);
    v.insert("slo_ok_ratio", o.slo_ok_ratio);
    v.insert("peak_rss_mb", o.peak_rss_mb);
}

fn context_metrics(o: &Outcome, cal: &Calibration, tracer: &Tracer, v: &mut Values) {
    v.insert("host.fma_gflops", cal.fma_gflops());
    v.insert("host.stream_gbps", host::stream_gbps());
    v.insert("host.noise_ratio", cal.noise_ratio());
    v.insert("gen.pairs", o.pairs as f64);
    v.insert("gen.late_p99_us", o.late_p99_us);
    v.insert("raw.work_per_s", o.work_per_s);
    v.insert("raw.ref_work_per_s", o.ref_work_per_s);
    v.insert("raw.op_p50_ms", o.op_p50_ms);
    v.insert("raw.op_tail_ms", o.op_tail_ms);
    v.insert("raw.setup_s", o.setup_s);
    v.insert("raw.ref_setup_s", o.ref_setup_s);
    v.insert("raw.quality", o.raw_quality);
    v.insert("trace.spans", tracer.len() as f64);
    v.insert("trace.overhead_ratio", o.trace_overhead_ratio);
}

/// The result line: exactly `correct`, `attempted`, `failed` and `metrics`,
/// the metrics in table order with their units.
fn result_line(o: &Outcome, values: &Values) -> String {
    let names: Vec<&str> = metrics::END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(metrics::PER_LAYER.iter().map(|m| m.name))
        .filter(|n| values.contains_key(n))
        .collect();
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        o.correct, o.attempted, o.failed
    );
    for (i, name) in names.iter().enumerate() {
        let value = values[name];
        assert!(value.is_finite(), "metric {name} is {value}");
        let sep = if i == 0 { "" } else { ", " };
        let unit = metrics::unit_of(name);
        let _ = write!(s, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

#[allow(clippy::too_many_arguments)] // one line of the report per argument
fn report(
    w: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    comparable: bool,
    host: &Host,
    o: &Outcome,
    values: &Values,
    wall_s: f64,
) {
    eprintln!("== {} seed {seed} seconds {seconds} trace {}", w.name, u8::from(trace));
    if !comparable {
        eprintln!("   NOT COMPARABLE: bounds and pinned values refer to {FULL_SECONDS} s runs");
    }
    eprintln!(
        "   host: {} x {}, simd {} (reference {}), {}",
        host.nproc, host.cpu_model, host.simd, host.ref_simd, host.rustc
    );
    eprintln!(
        "   {} slice pairs, op_tail_x at p{:.1}; attempted {} failed {} correct {}; wall {wall_s:.1} s",
        o.pairs, o.tail_pct, o.attempted, o.failed, o.correct
    );
    for (name, value) in values {
        eprintln!("   {name:<28} {value:>16.6} {}", metrics::unit_of(name));
    }
    for note in &o.notes {
        eprintln!("   {note}");
    }
}
