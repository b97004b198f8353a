//! `--aa N [--stress]`: the benchmark's self-check. Two alternating sets of
//! N runs of the same code per workload must agree within the benchmark's
//! own bounds, and no metric may spread wider than its bound: the test the
//! driver applies before it accepts a benchmark.

use crate::metrics::END_TO_END;
use crate::stats;
use crate::workloads::Workload;
use std::path::Path;
use std::process::{Child, Command, Stdio};

/// The value of metric `name` in a run's result line.
pub fn extract(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].trim().parse().ok()
}

/// One run in a child process, as the driver makes it: its metrics in
/// `END_TO_END` order.
fn child_run(exe: &Path, workload: &str, seed: u64, seconds: f64, out: &Path) -> Vec<f64> {
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .arg("--out")
        .arg(out)
        .stderr(Stdio::null())
        .output()
        .expect("running a child benchmark");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    assert!(output.status.success(), "{workload} seed {seed} failed: {line}");
    END_TO_END
        .iter()
        .map(|m| extract(line, m.name).unwrap_or_else(|| panic!("no {} in: {line}", m.name)))
        .collect()
}

/// The `--stress` neighbour: a child spinning `--burn`, stopped and reaped
/// when dropped (also when a run beside it panics).
struct Neighbour(Child);

impl Neighbour {
    fn spawn(exe: &Path) -> Self {
        let child = Command::new(exe).arg("--burn").stdout(Stdio::null()).spawn();
        Self(child.expect("spawning the neighbour"))
    }
}

impl Drop for Neighbour {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Interquartile range over the median, as the driver computes it.
fn spread(v: &[f64]) -> f64 {
    let s = stats::sorted(v);
    // `statistics.quantiles(values, n=4)`: the exclusive method.
    let q = |p: f64| {
        let pos = (p * (s.len() + 1) as f64 - 1.0).clamp(0.0, (s.len() - 1) as f64);
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
    };
    (q(0.75) - q(0.25)) / stats::median(v)
}

/// Runs the check; returns whether every metric on every workload passed.
pub fn run(
    workloads: &[&Workload],
    n: usize,
    stress: bool,
    seconds: f64,
    exe: &Path,
    out: &Path,
) -> bool {
    let mut all_ok = true;
    for w in workloads {
        // Sets A and B alternate run by run; with --stress every other run
        // of each set has the neighbour beside it.
        let mut sets: [Vec<Vec<f64>>; 2] = [Vec::new(), Vec::new()];
        for k in 0..2 * n {
            let seed = 1 + k as u64;
            let _neighbour = (stress && (k / 2) % 2 == 1).then(|| Neighbour::spawn(exe));
            sets[k % 2].push(child_run(exe, w.name, seed, seconds, out));
        }
        println!("== {} ({n} runs per set{})", w.name, if stress { ", stressed" } else { "" });
        println!(
            "{:<14} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8} {:>8}  verdict",
            "metric", "median A", "median B", "shift", "spread A", "spread B", "range A", "bound"
        );
        for (j, m) in END_TO_END.iter().enumerate() {
            let col = |s: &Vec<Vec<f64>>| -> Vec<f64> { s.iter().map(|run| run[j]).collect() };
            let (a, b) = (col(&sets[0]), col(&sets[1]));
            let (ma, mb) = (stats::median(&a), stats::median(&b));
            // How much worse B's median is than A's, in the metric's direction.
            let shift = if m.better == "lower" { mb / ma - 1.0 } else { 1.0 - mb / ma };
            let (sa, sb) = (spread(&a), spread(&b));
            let range = (a.iter().copied().fold(f64::MIN, f64::max)
                - a.iter().copied().fold(f64::MAX, f64::min))
                / ma;
            let ok = shift.abs() <= m.bound && sa.max(sb) <= m.bound;
            let steady = sa.max(sb) <= m.bound / 3.0;
            all_ok &= ok;
            println!(
                "{:<14} {:>9.4} {:>9.4} {:>+9.4} {:>8.4} {:>8.4} {:>8.4} {:>8.3}  {}",
                m.name,
                ma,
                mb,
                shift,
                sa,
                sb,
                range,
                m.bound,
                if !ok {
                    "FAIL"
                } else if steady {
                    "ok"
                } else {
                    "ok (spread above a third of the bound)"
                }
            );
        }
    }
    all_ok
}
