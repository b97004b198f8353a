//! The pooled dense Adam step equals `step_dense` **bit for bit** at every
//! lane count and dispatch level.
//!
//! The dispatch level is cached per process, so `every_dispatch_level`
//! re-runs this binary's exact test once under each `BSL_SIMD` value.

use bsl_linalg::pool::WorkerPool;
use bsl_linalg::Matrix;
use bsl_opt::Adam;

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// A deterministic, sign-mixed gradient that differs per step.
fn grad(rows: usize, d: usize, step: usize) -> Matrix {
    Matrix::from_fn(rows, d, |r, c| {
        let k = (r * 31 + c * 7 + step * 13) % 29;
        (k as f32 - 14.0) * 0.037 + if k == 3 { 0.0 } else { 1e-3 }
    })
}

/// Rows of width 7 and 9 put the row boundaries off the 8-float grid, and
/// the row counts give tables whose length is and is not a multiple of 8
/// (and shorter than one vector a lane): a cut inside a vector would move
/// that vector's elements from the FMA leg to the scalar tail.
#[test]
fn pooled_step_dense_matches_step_dense_bit_for_bit() {
    let pools: Vec<WorkerPool> = (1..=3).map(WorkerPool::new).collect();
    for d in [7usize, 9, 64] {
        for rows in [1usize, 3, 8, 37] {
            let init = Matrix::from_fn(rows, d, |r, c| ((r * d + c) % 11) as f32 * 0.1 - 0.5);
            let (mut want, mut adam) = (init.clone(), Adam::new(rows, d));
            for step in 0..3 {
                adam.step_dense(&mut want, &grad(rows, d, step), 0.01);
            }
            for pool in &pools {
                let (mut got, mut pooled) = (init.clone(), Adam::new(rows, d));
                for step in 0..3 {
                    pooled.step_dense_on(&mut got, &grad(rows, d, step), 0.01, Some(pool));
                }
                let label = format!("d = {d}, {rows} rows, {} lanes", pool.n_workers());
                assert_eq!(bits(&got), bits(&want), "{label}");
                assert_eq!(pooled.steps(), adam.steps(), "{label}");
            }
        }
    }
}

#[test]
fn every_dispatch_level() {
    let exe = std::env::current_exe().expect("test binary path");
    for level in ["scalar", "portable", "avx2"] {
        let out = std::process::Command::new(&exe)
            .env("BSL_SIMD", level)
            .args(["--exact", "pooled_step_dense_matches_step_dense_bit_for_bit"])
            .output()
            .expect("re-running the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("1 passed"),
            "BSL_SIMD={level}: {stdout}{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
