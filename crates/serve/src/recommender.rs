//! Request-level checks of the recommendation path: what a caller of
//! [`ServeState`](crate::ServeState) sees for a user, a `k` and a set of
//! [`ServeOptions`](crate::ServeOptions) — ordering, seen-filtering,
//! truncation, batching, candidate scoring and the retrieval mode an
//! artifact resolves to.

mod tests {
    use crate::{Rec, RecommendRequest, ServeOptions, ServeScratch, ServeState};
    use bsl_data::Dataset;
    use bsl_linalg::Matrix;
    use bsl_models::{EvalScore, ModelArtifact};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 2 users × 4 items, d = 2, scores = dot with one-hot-ish rows.
    fn art() -> ModelArtifact {
        let users = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let items = Matrix::from_vec(4, 2, vec![0.9, 0.0, 0.5, 0.1, 0.1, 0.8, 0.3, 0.3]);
        ModelArtifact::from_embeddings("MF", &users, &items, EvalScore::Dot)
    }

    /// A bigger random artifact for IVF-vs-exact comparisons.
    fn big_art() -> ModelArtifact {
        let mut rng = StdRng::seed_from_u64(77);
        let users = Matrix::gaussian(30, 8, 1.0, &mut rng);
        let items = Matrix::gaussian(300, 8, 1.0, &mut rng);
        ModelArtifact::from_embeddings("MF", &users, &items, EvalScore::Cosine)
    }

    /// The validated top-`k` for `user` under `opts`.
    fn top(
        state: &ServeState,
        scratch: &mut ServeScratch,
        user: u32,
        k: usize,
        opts: ServeOptions,
    ) -> Vec<Rec> {
        state.respond(&RecommendRequest { user, k, opts }, scratch).unwrap().recs
    }

    #[test]
    fn recommend_orders_by_score() {
        let state = ServeState::new(art());
        let got = top(&state, &mut ServeScratch::new(), 0, 4, ServeOptions::default());
        let items: Vec<u32> = got.iter().map(|r| r.item).collect();
        assert_eq!(items, vec![0, 1, 3, 2]);
        assert!(got.windows(2).all(|w| w[0].score >= w[1].score));
        assert_eq!(got[0].score, 0.9);
    }

    #[test]
    fn seen_items_are_filtered() {
        let ds = Dataset::from_pairs("s", 2, 4, &[(0, 0), (0, 2)], &[(0, 3)]);
        let state = ServeState::with_seen(art(), &ds);
        let mut scratch = ServeScratch::new();
        assert_eq!(state.seen(0), &[0, 2]);
        let got = top(&state, &mut scratch, 0, 4, ServeOptions::default());
        let items: Vec<u32> = got.iter().map(|r| r.item).collect();
        assert_eq!(items, vec![1, 3], "seen items 0 and 2 must be excluded");
        // User 1 has no seen items: full catalogue eligible.
        assert_eq!(top(&state, &mut scratch, 1, 4, ServeOptions::default()).len(), 4);
    }

    #[test]
    fn k_larger_than_catalogue_truncates() {
        let state = ServeState::new(art());
        let mut scratch = ServeScratch::new();
        assert_eq!(top(&state, &mut scratch, 0, 100, ServeOptions::default()).len(), 4);
        assert!(top(&state, &mut scratch, 0, 0, ServeOptions::default()).is_empty());
    }

    #[test]
    fn batch_matches_single_calls() {
        let ds = Dataset::from_pairs("b", 2, 4, &[(1, 1)], &[]);
        let state = ServeState::with_seen(art(), &ds);
        let mut scratch = ServeScratch::new();
        let reqs: Vec<RecommendRequest> =
            [0, 1, 0].iter().map(|&u| RecommendRequest::new(u, 3)).collect();
        let mut batch = Vec::new();
        state.recommend_batch_into(&reqs, &mut scratch, &mut batch);
        assert_eq!(batch.len(), 3);
        assert_eq!(batch[0], top(&state, &mut scratch, 0, 3, ServeOptions::default()));
        assert_eq!(batch[1], top(&state, &mut scratch, 1, 3, ServeOptions::default()));
        assert_eq!(batch[2], batch[0], "same user, same answer");
    }

    #[test]
    fn batch_into_reuses_buffers_and_matches_batch() {
        let state = ServeState::new(big_art());
        let mut scratch = ServeScratch::new();
        let reqs: Vec<RecommendRequest> = (0..20).map(|u| RecommendRequest::new(u, 10)).collect();
        let fresh: Vec<Vec<Rec>> =
            (0..20).map(|u| top(&state, &mut scratch, u, 10, ServeOptions::default())).collect();
        let mut out = Vec::new();
        state.recommend_batch_into(&reqs, &mut scratch, &mut out);
        assert_eq!(out, fresh);
        let ptrs: Vec<*const Rec> = out.iter().map(|v| v.as_ptr()).collect();
        state.recommend_batch_into(&reqs, &mut scratch, &mut out);
        assert_eq!(out, fresh);
        assert_eq!(ptrs, out.iter().map(|v| v.as_ptr()).collect::<Vec<_>>(), "buffers reused");
    }

    #[test]
    fn score_items_answers_the_candidates_asked() {
        let state = ServeState::new(art());
        let mut scores = Vec::new();
        state.score_items_into(1, &[2, 0], &mut scores).unwrap();
        assert!((scores[0] - 0.8).abs() < 1e-6);
        assert!((scores[1] - 0.0).abs() < 1e-6);
    }

    #[test]
    fn scratch_reuse_is_stable_across_calls() {
        let state = ServeState::new(art());
        let mut scratch = ServeScratch::new();
        let first = top(&state, &mut scratch, 0, 3, ServeOptions::default());
        for _ in 0..10 {
            let again = top(&state, &mut scratch, 0, 3, ServeOptions::default());
            assert_eq!(again, first);
        }
    }

    #[test]
    fn retrieval_mode_follows_the_artifact() {
        assert_eq!(ServeState::new(art()).resolve(&ServeOptions::default()), None);
        let mut indexed = big_art();
        indexed.build_default_ivf();
        let nprobe = indexed.index().unwrap().default_nprobe();
        assert_eq!(ServeState::new(indexed).resolve(&ServeOptions::default()), Some(nprobe));
    }

    #[test]
    fn nprobe_equal_nlist_is_bit_identical_to_exact() {
        let mut indexed = big_art();
        indexed.build_default_ivf();
        let nlist = indexed.index().unwrap().nlist();
        let exact = ServeState::new(big_art());
        let ivf = ServeState::new(indexed);
        let mut scratch = ServeScratch::new();
        for u in 0..30 {
            assert_eq!(
                top(&ivf, &mut scratch, u, 10, ServeOptions::with_nprobe(nlist)),
                top(&exact, &mut scratch, u, 10, ServeOptions::default()),
                "user {u}"
            );
        }
    }

    #[test]
    fn set_exact_overrides_the_index() {
        let mut indexed = big_art();
        indexed.build_default_ivf();
        let state = ServeState::new(indexed);
        assert_eq!(state.resolve(&ServeOptions::exact()), None);
        let exact = ServeState::new(big_art());
        let mut scratch = ServeScratch::new();
        for u in 0..10 {
            assert_eq!(
                top(&state, &mut scratch, u, 5, ServeOptions::exact()),
                top(&exact, &mut scratch, u, 5, ServeOptions::default())
            );
        }
    }
}
