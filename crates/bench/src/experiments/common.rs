//! Shared plumbing for the experiment harnesses.

use bsl_core::prelude::*;
use bsl_core::SamplingConfig;
use bsl_data::synth::SynthConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Worker-thread default applied by [`base_cfg`]; `1` keeps experiment
/// outputs bit-reproducible across machines, the `repro` binary's
/// `--threads` flag overrides it (0 = one per core).
static DEFAULT_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Sets the thread count [`base_cfg`] hands to every experiment config.
/// Note that `threads != 1` changes sampling streams, so figures/tables
/// are then reproducible per machine-independent `(seed, threads)` pair
/// but no longer bit-comparable to the serial baseline.
// ORDERING: Relaxed — process-wide CLI default written once by `repro`'s
// flag parsing before any experiment thread exists; no data is published
// through it.
pub fn set_default_threads(threads: usize) {
    DEFAULT_THREADS.store(threads, Ordering::Relaxed);
}

/// The thread count experiments currently run with (see
/// [`set_default_threads`]).
// ORDERING: Relaxed — see `set_default_threads`.
pub fn default_threads() -> usize {
    DEFAULT_THREADS.load(Ordering::Relaxed)
}

/// Experiment scale.
///
/// `Quick` shrinks the synthetic datasets and the training budget so the
/// whole suite finishes in minutes on a laptop; `Full` uses the generators'
/// own dataset sizes (README's "Reproducing the paper's figures and
/// tables") and a longer budget. Shape conclusions are the same; only
/// variance differs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-long runs for CI and iteration.
    Quick,
    /// Runs at the generators' own dataset sizes.
    Full,
}

impl Scale {
    /// Parses `"quick"`/`"full"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Scale> {
        match s.to_ascii_lowercase().as_str() {
            "quick" => Some(Scale::Quick),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    fn dataset_frac(self) -> f64 {
        match self {
            Scale::Quick => 0.42,
            Scale::Full => 1.0,
        }
    }

    /// Training epochs at this scale.
    pub fn epochs(self) -> usize {
        match self {
            Scale::Quick => 18,
            Scale::Full => 50,
        }
    }

    /// Embedding dimension at this scale (paper default 64).
    pub fn dim(self) -> usize {
        match self {
            Scale::Quick => 16,
            Scale::Full => 64,
        }
    }

    /// Negatives per positive at this scale (paper tunes 200–1500).
    pub fn negatives(self) -> usize {
        match self {
            Scale::Quick => 32,
            Scale::Full => 128,
        }
    }
}

/// Shrinks a generator config by `frac` in users/items/activity.
fn shrink(mut cfg: SynthConfig, frac: f64) -> SynthConfig {
    cfg.n_users = ((cfg.n_users as f64 * frac) as usize).max(40);
    cfg.n_items = ((cfg.n_items as f64 * frac) as usize).max(40);
    cfg.mean_activity = (cfg.mean_activity * frac.sqrt()).max(8.0);
    cfg
}

/// The four paper-shaped datasets, paper order (Amazon, Yelp2018, Gowalla,
/// MovieLens-1M), scaled.
pub fn suite(scale: Scale) -> Vec<Arc<Dataset>> {
    SynthConfig::paper_suite(7)
        .into_iter()
        .map(|c| Arc::new(generate(&shrink(c, scale.dataset_frac()))))
        .collect()
}

/// One named dataset from the suite (`"amazon"`, `"yelp"`, `"gowalla"`,
/// `"ml1m"`).
///
/// # Panics
/// Panics on an unknown name.
pub fn dataset(scale: Scale, name: &str) -> Arc<Dataset> {
    let cfg = match name {
        "amazon" => SynthConfig::amazon_like(7),
        "yelp" => SynthConfig::yelp_like(8),
        "gowalla" => SynthConfig::gowalla_like(9),
        "ml1m" => SynthConfig::ml1m_like(10),
        other => panic!("unknown dataset {other}"),
    };
    Arc::new(generate(&shrink(cfg, scale.dataset_frac())))
}

/// The Yelp-like dataset with its popularity skew boosted to real-log
/// levels (head items ×100 the median, as in Yelp2018) — used by the
/// fairness analyses (Figs 4a/5), where the mild skew of the default
/// generator mutes the popularity-bias channel the paper studies.
pub fn fairness_dataset(scale: Scale) -> Arc<Dataset> {
    let mut cfg = shrink(SynthConfig::yelp_like(8), scale.dataset_frac());
    cfg.mean_activity *= 0.7;
    cfg.zipf_exponent = 1.3;
    cfg.popularity_bias = 1.8;
    cfg.preference_temp = 0.5;
    Arc::new(generate(&cfg))
}

/// Base training config at a scale (MF backbone placeholder; callers
/// override `backbone`/`loss`).
pub fn base_cfg(scale: Scale) -> TrainConfig {
    TrainConfig {
        backbone: BackboneConfig::Mf,
        loss: LossConfig::Sl { tau: 0.15 },
        sampling: SamplingConfig::Uniform,
        dim: scale.dim(),
        epochs: scale.epochs(),
        batch_size: 512,
        negatives: scale.negatives(),
        lr: 1e-2,
        l2: 1e-6,
        eval_every: 3,
        patience: 4,
        seed: 0,
        threads: default_threads(),
    }
}

/// Default GCN layer count.
pub const GCN_LAYERS: usize = 2;

/// LightGCN backbone config at the default depth.
pub fn lgn() -> BackboneConfig {
    BackboneConfig::LightGcn { layers: GCN_LAYERS }
}

/// The loss grid the comparison experiments sweep (paper Fig 1 / Table II).
pub fn classic_losses() -> Vec<(&'static str, LossConfig)> {
    vec![
        ("BPR", LossConfig::Bpr),
        ("BCE", LossConfig::Bce { neg_weight: 1.0 }),
        ("MSE", LossConfig::Mse { neg_weight: 1.0 }),
    ]
}

/// SL temperatures searched when tuning (paper: [0.05, 1.0] at 0.05 grid;
/// trimmed here).
pub fn tau_grid(scale: Scale) -> Vec<f32> {
    match scale {
        Scale::Quick => vec![0.2, 0.35, 0.5],
        Scale::Full => vec![0.1, 0.15, 0.22, 0.33, 0.5],
    }
}

/// Trains `cfg` on `ds` and returns the outcome.
pub fn run(ds: &Arc<Dataset>, cfg: TrainConfig) -> TrainOutcome {
    Trainer::new(cfg).fit(ds)
}

/// Grid-searches SL's τ and returns `(best_tau, best_outcome)`.
pub fn tune_sl(ds: &Arc<Dataset>, base: TrainConfig, scale: Scale) -> (f32, TrainOutcome) {
    let mut best: Option<(f32, TrainOutcome)> = None;
    for tau in tau_grid(scale) {
        let out = run(ds, TrainConfig { loss: LossConfig::Sl { tau }, ..base });
        if best.as_ref().map(|(_, b)| out.best.ndcg(20) > b.best.ndcg(20)).unwrap_or(true) {
            best = Some((tau, out));
        }
    }
    best.expect("non-empty tau grid")
}

/// Grid-searches BSL's (τ1, τ2) over `tau_grid × ratio ∈ {1, 1.5, 3}` and
/// returns the best outcome.
pub fn tune_bsl(ds: &Arc<Dataset>, base: TrainConfig, scale: Scale) -> ((f32, f32), TrainOutcome) {
    let mut best: Option<((f32, f32), TrainOutcome)> = None;
    for tau2 in tau_grid(scale) {
        for ratio in [1.0f32, 1.5, 3.0] {
            let tau1 = tau2 * ratio;
            let out = run(ds, TrainConfig { loss: LossConfig::Bsl { tau1, tau2 }, ..base });
            if best.as_ref().map(|(_, b)| out.best.ndcg(20) > b.best.ndcg(20)).unwrap_or(true) {
                best = Some(((tau1, tau2), out));
            }
        }
    }
    best.expect("non-empty grid")
}

/// `(new − old)/old` as a signed percentage string.
pub fn pct(new: f64, old: f64) -> String {
    if old.abs() < 1e-12 {
        return "n/a".into();
    }
    format!("{:+.2}%", 100.0 * (new - old) / old)
}

/// Prints a markdown-ish table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Prints a header row plus separator.
pub fn header(cells: &[&str]) {
    println!("| {} |", cells.join(" | "));
    println!("|{}|", cells.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parse_roundtrip() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("FULL"), Some(Scale::Full));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn suite_has_four_datasets_in_paper_order() {
        let suite = suite(Scale::Quick);
        assert_eq!(suite.len(), 4);
        assert!(suite[0].name.contains("amazon"));
        assert!(suite[1].name.contains("yelp"));
        assert!(suite[2].name.contains("gowalla"));
        assert!(suite[3].name.contains("ml1m"));
    }

    #[test]
    fn quick_suite_is_smaller_than_full_configs() {
        let q = dataset(Scale::Quick, "yelp");
        assert!(q.n_users < 700);
        assert!(q.n_users >= 40);
    }

    #[test]
    fn thread_override_flows_into_base_cfg() {
        let before = default_threads();
        set_default_threads(4);
        assert_eq!(base_cfg(Scale::Quick).threads, 4);
        set_default_threads(before);
        assert_eq!(base_cfg(Scale::Quick).threads, before);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(1.2, 1.0), "+20.00%");
        assert_eq!(pct(0.0, 0.0), "n/a");
    }
}
