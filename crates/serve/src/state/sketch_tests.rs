//! The sketch-pruned exact path against its oracle, the plain catalogue
//! scan plus `TopK::select_masked_into`: every served `(item, score)` must
//! match in id and in score bits, serially and batched, with and without
//! the seen mask.

use super::*;
use bsl_linalg::topk::top_k_masked;
use bsl_linalg::Matrix;
use bsl_models::EvalScore;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const USERS: u32 = 6;
const WIDTHS: [usize; 6] = [1, 7, 8, 64, 65, 128];
const SCORES: [EvalScore; 3] = [EvalScore::Dot, EvalScore::Cosine, EvalScore::NegSqDist];

/// How a case draws its item rows.
#[derive(Clone, Copy, Debug)]
enum Shape {
    Gaussian,
    /// Rows repeat in runs of three: exact ties across the top-k boundary.
    Duplicates,
    /// Every row the same: everything survives and the plain scan answers.
    AllEqual,
    /// One coordinate a row 10⁴ times the others: a large scale.
    HugeCoordinate,
    /// Every other row zero: scale 0.
    ZeroRows,
}

const SHAPES: [Shape; 5] =
    [Shape::Gaussian, Shape::Duplicates, Shape::AllEqual, Shape::HugeCoordinate, Shape::ZeroRows];

/// A state over `n` items of width `d` drawn as `shape`. Every user has
/// seen their two best items, so the mask hides would-be winners, and two
/// random ones.
fn state(shape: Shape, score: EvalScore, n: usize, d: usize, seed: u64) -> ServeState {
    let mut rng = StdRng::seed_from_u64(seed);
    let users = Matrix::gaussian(USERS as usize, d, 1.0, &mut rng);
    let mut items = Matrix::gaussian(n, d, 1.0, &mut rng);
    for r in 0..n {
        let copy_of = match shape {
            Shape::Duplicates => r - r % 3,
            Shape::AllEqual => 0,
            _ => r,
        };
        if copy_of != r {
            let src = items.row(copy_of).to_vec();
            items.row_mut(r).copy_from_slice(&src);
        }
        match shape {
            Shape::HugeCoordinate => items.row_mut(r)[r % d] *= 1e4,
            Shape::ZeroRows if r % 2 == 0 => items.row_mut(r).fill(0.0),
            _ => {}
        }
    }
    let art = ModelArtifact::from_embeddings("MF", &users, &items, score);
    let (mut pairs, mut scores) = (Vec::new(), Vec::new());
    for u in 0..USERS {
        art.score_catalogue_into(u, &mut scores);
        pairs.extend(top_k_masked(&scores, 2, |_| false).into_iter().map(|i| (u, i)));
        pairs.extend((0..2).map(|_| (u, rng.gen_range(0..n as u32))));
    }
    ServeState::with_seen(art, &Dataset::from_pairs("sketch", USERS as usize, n, &pairs, &[]))
}

/// `(item, score bits)` of a served list.
fn bits(recs: &[Rec]) -> Vec<(u32, u32)> {
    recs.iter().map(|r| (r.item, r.score.to_bits())).collect()
}

/// The plain scan and the threshold-first selector.
fn oracle(state: &ServeState, req: &RecommendRequest) -> Vec<(u32, u32)> {
    let mut scores = Vec::new();
    state.artifact().score_catalogue_into(req.user, &mut scores);
    let seen = state.mask_for(req);
    top_k_masked(&scores, req.k, |i| seen.binary_search(&(i as u32)).is_ok())
        .into_iter()
        .map(|i| (i, scores[i as usize].to_bits()))
        .collect()
}

/// Checks every user with the mask on and off, serially and in batches
/// from 2 to 32. Returns how many serial requests the sketch answered.
fn check(state: &ServeState, k: usize) -> usize {
    let reqs: Vec<RecommendRequest> = (0..USERS)
        .flat_map(|user| {
            [true, false].map(|filter_seen| RecommendRequest {
                user,
                k,
                opts: ServeOptions { filter_seen, ..ServeOptions::exact() },
            })
        })
        .collect();
    let want: Vec<_> = reqs.iter().map(|r| oracle(state, r)).collect();
    let (mut scratch, mut out) = (ServeScratch::new(), Vec::new());
    let mut pruned = 0;
    for (req, want) in reqs.iter().zip(&want) {
        state.recommend_into(req, &mut scratch, &mut out);
        assert_eq!(bits(&out), *want, "serial {req:?}");
        pruned += usize::from(scratch.rank.pruned());
    }
    let mut batched = Vec::new();
    for size in [2, 15, 16, 32] {
        let batch: Vec<usize> = (0..size).map(|i| i % reqs.len()).collect();
        let chunk: Vec<RecommendRequest> = batch.iter().map(|&i| reqs[i]).collect();
        state.recommend_batch_into(&chunk, &mut scratch, &mut batched);
        for (&i, got) in batch.iter().zip(&batched) {
            assert_eq!(bits(got), want[i], "batch of {size}, {:?}", reqs[i]);
        }
    }
    pruned
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn prop_pruned_exact_path_serves_the_plain_scan_answer(
        shape in 0usize..5,
        score in 0usize..3,
        width in 0usize..6,
        n in 1usize..200,
        ksel in 0usize..6,
        seed in 0u64..1_000_000,
    ) {
        let k = [0, 1, 10, n.saturating_sub(1), n, n + 5][ksel];
        check(&state(SHAPES[shape], SCORES[score], n, WIDTHS[width], seed), k);
    }
}

/// Every row shape × similarity × width × `k` from the list, on a
/// catalogue smaller than `k = 10` and on one several tiles long.
#[test]
fn every_shape_width_and_k_serves_the_plain_scan_answer() {
    for (s, &shape) in SHAPES.iter().enumerate() {
        for &score in &SCORES {
            for &d in &WIDTHS {
                for n in [7usize, 301] {
                    let state = state(shape, score, n, d, (s * 1000 + n + d) as u64);
                    for k in [0, 1, 10, n - 1, n, n + 5] {
                        check(&state, k);
                    }
                }
            }
        }
    }
}

/// The battery above proves nothing unless the pruned path answers: on
/// ordinary catalogues it answers every request. (A CML row carries
/// `‖i‖²` as a coordinate, which sets its scale; on raw Gaussian rows at
/// d = 64 that leaves most items within reach of the top k.)
#[test]
fn the_sketch_answers_ordinary_requests() {
    let cases = [
        (EvalScore::Dot, 8),
        (EvalScore::Dot, 64),
        (EvalScore::Cosine, 8),
        (EvalScore::Cosine, 64),
        (EvalScore::NegSqDist, 8),
    ];
    for (score, d) in cases {
        let state = state(Shape::Gaussian, score, 5000, d, 11);
        assert_eq!(check(&state, 10), 2 * USERS as usize, "{score:?} d {d}");
    }
}

/// On all-equal rows every item survives, and the plain scan answers.
#[test]
fn all_equal_rows_fall_back_to_the_plain_scan() {
    for &score in &SCORES {
        assert_eq!(check(&state(Shape::AllEqual, score, 300, 16, 5), 10), 0, "{score:?}");
    }
}

/// Int8 artifacts have no f32 table to sketch; a non-finite table cannot
/// be bounded. Both serve through the plain paths.
#[test]
fn no_sketch_without_a_finite_f32_table() {
    let quantized = state(Shape::Gaussian, EvalScore::Dot, 50, 8, 3).artifact().quantize();
    assert!(ServeState::new(quantized).sketch.is_none());
    let mut users = Matrix::zeros(USERS as usize, 4);
    users.fill(1.0);
    let mut items = Matrix::zeros(40, 4);
    items.fill(0.5);
    items.row_mut(3)[1] = f32::NAN;
    let state = ServeState::new(ModelArtifact::from_prepared("MF", EvalScore::Dot, users, items));
    assert!(state.sketch.is_none());
    check(&state, 5);
}
