//! The gathered f32 kernels equal their block twins **bit for bit** on the
//! copied-out rows, at every dispatch level.
//!
//! The dispatch level is cached per process, so `every_dispatch_level`
//! re-runs this binary's property test once under each `BSL_SIMD` value.

use bsl_linalg::simd::{
    cosine_backward_block, cosine_backward_gather, scores_block, scores_gather,
};
use proptest::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Duplicate and unsorted ids, odd and even `m`, dims straddling the
    /// 8-lane boundary (masked AVX2 tails) and `g == 0` entries.
    #[test]
    fn gather_equals_block_bitwise(
        n in 1usize..12,
        picks in proptest::collection::vec(0usize..12, 0..20),
        seed in 0u64..200,
    ) {
        for d in [13usize, 15, 64] {
            let q: Vec<f32> = (0..d).map(|i| ((i as u64 * 5 + seed) % 13) as f32 * 0.21 - 1.1).collect();
            let table: Vec<f32> =
                (0..n * d).map(|i| ((i as u64 * 7 + seed * 3) % 23) as f32 * 0.13 - 1.4).collect();
            let ids: Vec<u32> = picks.iter().map(|&p| (p % n) as u32).collect();
            let m = ids.len();
            let block: Vec<f32> = ids
                .iter()
                .flat_map(|&i| table[i as usize * d..(i as usize + 1) * d].iter().copied())
                .collect();

            let (mut ss, mut got) = (vec![0.0f32; m], vec![0.0f32; m]);
            scores_block(&q, &block, &mut ss);
            scores_gather(&q, &table, &ids, &mut got);
            prop_assert_eq!(bits(&got), bits(&ss), "scores d={} ids={:?}", d, &ids);

            let gs: Vec<f32> =
                (0..m).map(|j| if (j as u64 + seed) % 3 == 0 { 0.0 } else { 0.1 * j as f32 - 0.35 }).collect();
            let (mut want, mut got) = (vec![0.02f32; d], vec![0.02f32; d]);
            cosine_backward_block(&gs, &ss, &q, 0.9, &block, &mut want);
            cosine_backward_gather(&gs, &ss, &q, 0.9, &table, &ids, &mut got);
            prop_assert_eq!(bits(&got), bits(&want), "backward d={} ids={:?}", d, &ids);
        }
    }
}

#[test]
fn every_dispatch_level() {
    let exe = std::env::current_exe().expect("test binary path");
    for level in ["scalar", "portable", "avx2"] {
        let out = std::process::Command::new(&exe)
            .env("BSL_SIMD", level)
            .args(["--exact", "gather_equals_block_bitwise"])
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

#[test]
#[should_panic]
fn scores_gather_panics_on_an_id_past_the_table() {
    // Two ids so the paired AVX2 path is the one that must bounds-check.
    scores_gather(&[1.0, 2.0], &[0.5; 6], &[0, 3], &mut [0.0; 2]);
}

#[test]
#[should_panic]
fn cosine_backward_gather_panics_on_an_id_past_the_table() {
    cosine_backward_gather(&[0.3], &[0.1], &[1.0, 0.0], 1.0, &[0.5; 6], &[3], &mut [0.0; 2]);
}
