//! The gathered kernels equal their block and per-occurrence forms **bit
//! for bit**, and the int8 dots equal the exact integers, at every dispatch
//! level.
//!
//! The dispatch level is cached per process, so `every_dispatch_level`
//! re-runs this binary's exact tests once under each `BSL_SIMD` value.

use bsl_linalg::kernels::cosine_backward_into;
use bsl_linalg::simd::{
    cosine_backward_block, cosine_backward_row, dots_block_i8, scores_block, scores_block_i8,
    scores_gather, scores_gather_i8,
};
use proptest::prelude::*;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// A gathered row scores what the block gives it, whether the block is
    /// the gathered rows copied out or the whole table: duplicate and
    /// unsorted ids, odd and even `m` and `n` (a row at any position, the
    /// table's odd last row included), dims straddling the 8-lane boundary
    /// (masked AVX2 tails).
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

            let (mut ss, mut got, mut all) = (vec![0.0f32; m], vec![0.0f32; m], vec![0.0f32; n]);
            scores_block(&q, &block, &mut ss);
            scores_gather(&q, &table, &ids, &mut got);
            scores_block(&q, &table, &mut all);
            let at: Vec<f32> = ids.iter().map(|&i| all[i as usize]).collect();
            prop_assert_eq!(bits(&got), bits(&ss), "scores d={} ids={:?}", d, &ids);
            prop_assert_eq!(bits(&got), bits(&at), "table d={} ids={:?}", d, &ids);
        }
    }

    /// The int8 twin: a gathered quantized row scores what the whole-table
    /// block scan gives it. `n` and `m` around multiples of eight (the
    /// eight-row AVX2 kernel's short last group), dims below, at and past 8.
    #[test]
    fn gather_i8_equals_block_i8_bitwise(
        n in 1usize..27,
        picks in proptest::collection::vec(0usize..27, 0..30),
        seed in 0u64..200,
    ) {
        for d in [1usize, 7, 8, 13, 64, 65] {
            let q: Vec<f32> = (0..d).map(|i| ((i as u64 * 5 + seed) % 13) as f32 * 0.21 - 1.1).collect();
            let table: Vec<i8> =
                (0..n * d).map(|i| (((i as u64 * 7 + seed * 3) % 255) as i64 - 127) as i8).collect();
            let scales: Vec<f32> = (0..n).map(|r| 0.01 + ((r as u64 + seed) % 7) as f32 * 0.003).collect();
            let ids: Vec<u32> = picks.iter().map(|&p| (p % n) as u32).collect();
            let (mut got, mut all) = (vec![0.0f32; ids.len()], vec![0.0f32; n]);
            scores_gather_i8(&q, &table, &scales, &ids, &mut got);
            scores_block_i8(&q, &table, &scales, &mut all);
            let at: Vec<f32> = ids.iter().map(|&i| all[i as usize]).collect();
            prop_assert_eq!(bits(&got), bits(&at), "d={} ids={:?}", d, &ids);
        }
    }
}

/// The exact int8 dots equal a plain `i32` loop: dims below, at and past
/// the AVX2 leg's 32-byte step (masked tails of 1 and 31 bytes), `m` around
/// its eight-row group, and extreme rows — every entry ±127 against a ±127
/// query, `D = ±d·16,129` — beside pseudo-random ones.
#[test]
fn dots_block_i8_equals_the_integer_loop() {
    let plain = |q: &[i8], row: &[i8]| -> i32 {
        q.iter().zip(row).map(|(&a, &b)| i32::from(a) * i32::from(b)).sum()
    };
    let random = |i: usize, salt: usize| (((i * 2_654_435_761 + salt) % 255) as i32 - 127) as i8;
    for d in [1usize, 7, 8, 31, 32, 33, 64, 65, 128] {
        let full = (d * 127 * 127) as i32;
        for m in [1usize, 7, 8, 9, 64] {
            // Row r of the extreme block is ±q (its sign alternating with r).
            let sign = |r: usize| if r.is_multiple_of(2) { 1 } else { -1 };
            let extremes: [Vec<i8>; 2] =
                [vec![127; d], (0..d).map(|j| if j % 3 == 0 { -127 } else { 127 }).collect()];
            for q in extremes {
                let block: Vec<i8> = (0..m * d).map(|i| q[i % d] * sign(i / d) as i8).collect();
                let mut got = vec![0i32; m];
                dots_block_i8(&q, &block, &mut got);
                let want: Vec<i32> = (0..m).map(|r| sign(r) * full).collect();
                assert_eq!(got, want, "d={d} m={m} extreme");
            }
            let q: Vec<i8> = (0..d).map(|i| random(i, 17)).collect();
            let block: Vec<i8> = (0..m * d).map(|i| random(i, 91)).collect();
            let mut got = vec![0i32; m];
            dots_block_i8(&q, &block, &mut got);
            let want: Vec<i32> = block.chunks_exact(d).map(|row| plain(&q, row)).collect();
            assert_eq!(got, want, "d={d} m={m}");
        }
    }
}

/// A quiet NaN no arithmetic produces: a row still holding it was not
/// written, not even with `+= 0`.
const POISON: u32 = 0x7fc0_dead;

/// One batch row's backward inputs over a 9-row table and an 8-row block.
///
/// Slots repeat, also back to back (`j / 2`), and several occurrences
/// target each of the block's first five rows, also back to back. Every
/// third `g` is exactly 0; those occurrences name the poisoned row 5 or no
/// row at all. Rows 6 and 7 are named by nobody. Table row 8 has norm 0.
struct RowCase {
    q_hat: Vec<f32>,
    table_hat: Vec<f32>,
    table_norms: Vec<f32>,
    gs: Vec<f32>,
    ss: Vec<f32>,
    slots: Vec<u32>,
    rows: Vec<u32>,
    block: Vec<f32>,
    grad_q: Vec<f32>,
}

const TABLE_ROWS: usize = 9;
const BLOCK_ROWS: usize = 8;

fn row_case(d: usize, m: usize) -> RowCase {
    let wave = |i: usize, f: f32| (i as f32 * f).sin();
    let mut table_hat: Vec<f32> = (0..TABLE_ROWS * d).map(|i| wave(i, 0.173)).collect();
    table_hat[8 * d..].fill(0.0);
    let mut table_norms: Vec<f32> = (0..TABLE_ROWS).map(|r| 0.4 + 0.3 * r as f32).collect();
    table_norms[8] = 0.0;
    let gs: Vec<f32> =
        (0..m).map(|j| if j % 3 == 2 { 0.0 } else { 0.01 * (j % 29) as f32 - 0.13 }).collect();
    let slots: Vec<u32> = (0..m)
        .map(|j| match (gs[j] == 0.0, j % 2) {
            (true, 0) => u32::MAX,
            _ => ((j / 2) % TABLE_ROWS) as u32,
        })
        .collect();
    let rows: Vec<u32> = (0..m)
        .map(|j| match (gs[j] == 0.0, j % 2) {
            (true, 0) => u32::MAX,
            (true, _) => 5,
            _ => ((j / 2) % 5) as u32,
        })
        .collect();
    let mut block: Vec<f32> = (0..BLOCK_ROWS * d).map(|i| wave(i, 0.071)).collect();
    block[5 * d..].fill(f32::from_bits(POISON));
    RowCase {
        q_hat: (0..d).map(|i| wave(i, 0.37)).collect(),
        table_hat,
        table_norms,
        ss: (0..m).map(|j| wave(j, 0.61)).collect(),
        gs,
        slots,
        rows,
        block,
        grad_q: (0..d).map(|i| wave(i, 0.53)).collect(),
    }
}

/// Dims with a masked tail only (1, 7), no tail (8, 64), full registers
/// and a tail (50), and more lanes than the AVX2 leg has accumulator
/// registers (65, 128); `m` of none, one, the sampled 64 and the in-batch
/// 511.
#[test]
fn row_backward_equals_block_and_per_occurrence_bitwise() {
    for d in [1usize, 7, 8, 50, 64, 65, 128] {
        for m in [0usize, 1, 64, 511] {
            let case = row_case(d, m);
            let RowCase { q_hat, table_hat, table_norms, gs, ss, slots, rows, .. } = &case;
            let q_norm = 0.9;
            let table_row = |slot: u32| &table_hat[slot as usize * d..(slot as usize + 1) * d];

            // User side: the block kernel on the copied-out rows (a skipped
            // occurrence's row is never read; any row stands in for it).
            let block_hat: Vec<f32> = slots
                .iter()
                .flat_map(|&s| table_row(if s == u32::MAX { 0 } else { s }).iter().copied())
                .collect();
            let mut want_q = case.grad_q.clone();
            cosine_backward_block(gs, ss, q_hat, q_norm, &block_hat, &mut want_q);
            // Item side: one `cosine_backward_into` per occurrence, in order.
            let mut want_block = case.block.clone();
            for j in (0..m).filter(|&j| gs[j] != 0.0) {
                let (n_hat, r) = (table_row(slots[j]), rows[j] as usize);
                let grad_n = &mut want_block[r * d..(r + 1) * d];
                cosine_backward_into(
                    gs[j],
                    ss[j],
                    n_hat,
                    q_hat,
                    table_norms[slots[j] as usize],
                    grad_n,
                );
            }

            let (mut got_q, mut got_block) = (case.grad_q.clone(), case.block.clone());
            cosine_backward_row(
                gs,
                ss,
                q_hat,
                q_norm,
                table_hat,
                table_norms,
                slots,
                &mut got_block,
                rows,
                &mut got_q,
            );
            assert_eq!(bits(&got_q), bits(&want_q), "user side, d={d} m={m}");
            assert_eq!(bits(&got_block), bits(&want_block), "item side, d={d} m={m}");
            assert!(got_block[5 * d..].iter().all(|x| x.to_bits() == POISON), "d={d} m={m}");
            assert!(got_q.iter().chain(&got_block[..5 * d]).all(|x| x.is_finite()), "d={d} m={m}");
        }
    }
}

#[test]
fn every_dispatch_level() {
    let exe = std::env::current_exe().expect("test binary path");
    for level in ["scalar", "portable", "avx2"] {
        let out = std::process::Command::new(&exe)
            .env("BSL_SIMD", level)
            .args([
                "--exact",
                "gather_equals_block_bitwise",
                "gather_i8_equals_block_i8_bitwise",
                "row_backward_equals_block_and_per_occurrence_bitwise",
                "dots_block_i8_equals_the_integer_loop",
            ])
            .output()
            .expect("re-running the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && stdout.contains("4 passed"),
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
fn cosine_backward_row_panics_on_a_slot_past_the_table() {
    let (mut block, mut grad_q) = ([0.0; 4], [0.0; 2]);
    cosine_backward_row(
        &[0.3],
        &[0.1],
        &[1.0, 0.0],
        1.0,
        &[0.5; 6],
        &[1.0; 3],
        &[3],
        &mut block,
        &[0],
        &mut grad_q,
    );
}

#[test]
#[should_panic]
fn cosine_backward_row_panics_on_a_row_past_the_block() {
    let (mut block, mut grad_q) = ([0.0; 4], [0.0; 2]);
    cosine_backward_row(
        &[0.3],
        &[0.1],
        &[1.0, 0.0],
        1.0,
        &[0.5; 6],
        &[1.0; 3],
        &[0],
        &mut block,
        &[2],
        &mut grad_q,
    );
}
