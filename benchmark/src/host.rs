//! What the run ran on, and how noisy it was while it ran.

use crate::sides::{product, reference};
use crate::stats;
use std::hint::black_box;
use std::time::Instant;

/// The `host` block recorded with every result.
pub struct Host {
    pub nproc: usize,
    pub cpu_model: String,
    /// SIMD level the product and the reference dispatch to.
    pub simd: String,
    pub ref_simd: String,
    pub rustc: String,
}

impl Host {
    pub fn detect() -> Self {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or("unknown".to_string(), |(_, m)| m.trim().to_string());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            simd: product::simd_level(),
            ref_simd: reference::simd_level(),
            // run.sh exports the compiler it built with.
            rustc: std::env::var("BSL_DUET_RUSTC").unwrap_or_else(|_| "unknown".to_string()),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"simd\": \"{}\", \"ref_simd\": \"{}\", \
             \"rustc\": \"{}\"}}",
            self.nproc,
            self.cpu_model.replace('"', "'"),
            self.simd,
            self.ref_simd,
            self.rustc.replace('"', "'")
        )
    }
}

/// Floats of the compute kernel's two operands: 16 KiB together, L1-resident.
const FMA_LEN: usize = 2048;
const FMA_CALLS: usize = 2000;
/// The stream buffer: larger than any cache level on the host.
const STREAM_BYTES: usize = 64 << 20;

/// One timing of the L1-resident compute loop, in seconds. It runs the
/// *reference's* dot kernel, so that a product change cannot move a host
/// metric.
fn fma_loop(a: &[f32], b: &[f32]) -> f64 {
    let t = Instant::now();
    let mut acc = 0.0f32;
    for _ in 0..FMA_CALLS {
        acc += ref_linalg::simd::dot(black_box(a), black_box(b));
    }
    black_box(acc);
    t.elapsed().as_secs_f64()
}

fn stream_sum(buf: &[u64]) -> u64 {
    buf.iter().fold(0u64, |s, &x| s.wrapping_add(x))
}

/// Compute and memory calibration of the host as the run saw it.
pub struct Calibration {
    samples: Vec<f64>,
    a: Vec<f32>,
    b: Vec<f32>,
}

impl Calibration {
    pub fn new() -> Self {
        let a: Vec<f32> = (0..FMA_LEN).map(|i| 1.0 + i as f32 * 1e-4).collect();
        let b: Vec<f32> = (0..FMA_LEN).map(|i| 1.0 - i as f32 * 1e-4).collect();
        Self { samples: Vec::new(), a, b }
    }

    /// Takes `n` timings of the compute loop; called at several points of a
    /// run so that the samples span it.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            self.samples.push(fma_loop(&self.a, &self.b));
        }
    }

    /// Peak rate of the compute loop over the samples.
    pub fn fma_gflops(&self) -> f64 {
        let best = self.samples.iter().copied().fold(f64::INFINITY, f64::min);
        (2 * FMA_LEN * FMA_CALLS) as f64 / best / 1e9
    }

    /// p90 ÷ p10 of the compute loop's timings: 1.0 on a quiet host.
    pub fn noise_ratio(&self) -> f64 {
        stats::quantile(&self.samples, 0.9) / stats::quantile(&self.samples, 0.1)
    }
}

/// Best of a few passes over a 64 MiB buffer, in GB/s.
pub fn stream_gbps() -> f64 {
    let buf = vec![1u64; STREAM_BYTES / 8];
    let best = (0..5)
        .map(|_| {
            let t = Instant::now();
            black_box(stream_sum(black_box(&buf)));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    STREAM_BYTES as f64 / best / 1e9
}

/// The `--stress` neighbour: alternates the compute loop and the stream
/// until killed.
pub fn burn() -> ! {
    let cal = Calibration::new();
    let buf = vec![1u64; STREAM_BYTES / 8];
    loop {
        for _ in 0..50 {
            black_box(fma_loop(&cal.a, &cal.b));
        }
        black_box(stream_sum(black_box(&buf)));
    }
}
