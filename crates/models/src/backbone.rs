//! The [`Backbone`] trait and the serializable model selector.

use crate::artifact::ModelArtifact;
use crate::grad::GradBuffer;
use crate::lightgcn::LightGcn;
use bsl_data::Dataset;
use bsl_linalg::pool::WorkerPool;
use bsl_linalg::Matrix;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Score function used during *training* (paper Table V: all backbones
/// train on cosine similarity; CML trains on negated squared distances).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TrainScore {
    /// Cosine similarity of final embeddings.
    Cosine,
    /// Negated squared Euclidean distance (CML).
    NegSqDist,
}

/// Score function used during *testing* (Table V: cosine for MF, inner
/// product for the GCN backbones, distance for CML).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EvalScore {
    /// Inner product.
    Dot,
    /// Cosine similarity.
    Cosine,
    /// Negated squared Euclidean distance.
    NegSqDist,
}

/// Per-step optimizer hyperparameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Hyper {
    /// Learning rate for this step.
    pub lr: f32,
    /// L2 regularization coefficient on the touched parameters.
    pub l2: f32,
}

/// A trainable recommendation backbone.
pub trait Backbone: Send {
    /// Short identifier used in experiment tables (`"MF"`, `"LGN"`, …).
    fn name(&self) -> &'static str;
    /// Number of users.
    fn n_users(&self) -> usize;
    /// Number of items.
    fn n_items(&self) -> usize;
    /// Dimensionality of the *final* embeddings (may exceed the base
    /// embedding size, e.g. NGCF concatenates layers).
    fn out_dim(&self) -> usize;

    /// Recomputes the final embeddings from the current parameters. `rng`
    /// drives stochastic augmentations (edge-dropout / noise views); plain
    /// backbones ignore it.
    fn forward(&mut self, rng: &mut StdRng);

    /// [`Backbone::forward`] with `pool`'s lanes free for its
    /// row-independent stages (the propagation hops). The result has
    /// `forward`'s bits at any lane count; `None` is `forward` itself,
    /// which is what backbones without such stages run.
    fn forward_on(&mut self, rng: &mut StdRng, pool: Option<&WorkerPool>) {
        let _ = pool;
        self.forward(rng);
    }

    /// Final user embeddings (valid after [`Backbone::forward`]).
    fn user_factors(&self) -> &Matrix;
    /// Final item embeddings (valid after [`Backbone::forward`]).
    fn item_factors(&self) -> &Matrix;

    /// One optimizer step. `grads` holds `∂L/∂(final embeddings)` for the
    /// main ranking loss; implementations add their auxiliary
    /// (self-supervised) gradients and L2, then update parameters with
    /// their own Adam state. `batch_users`/`batch_items` identify the
    /// batch's nodes for in-batch auxiliary losses. Returns the auxiliary
    /// loss value (0 when the model has none).
    fn step(
        &mut self,
        grads: &GradBuffer,
        batch_users: &[u32],
        batch_items: &[u32],
        hp: Hyper,
        rng: &mut StdRng,
    ) -> f64;

    /// [`Backbone::step`] with `pool`'s lanes free for its
    /// row-independent stages (the backward propagation and dense Adam).
    /// The update has `step`'s bits at any lane count; `None` is `step`
    /// itself, which is what backbones without such stages run.
    fn step_on(
        &mut self,
        grads: &GradBuffer,
        batch_users: &[u32],
        batch_items: &[u32],
        hp: Hyper,
        rng: &mut StdRng,
        pool: Option<&WorkerPool>,
    ) -> f64 {
        let _ = pool;
        self.step(grads, batch_users, batch_items, hp, rng)
    }

    /// The training-time score function.
    fn train_score(&self) -> TrainScore {
        TrainScore::Cosine
    }

    /// The test-time score function.
    fn eval_score(&self) -> EvalScore;

    /// Freezes the current final embeddings into a servable
    /// [`ModelArtifact`] — the train→deploy boundary. The tables are
    /// prepared under [`Backbone::eval_score`] (cosine backbones
    /// pre-normalized, CML's distance ranking converted to an inner
    /// product), so the artifact serves with plain blocked dot products.
    ///
    /// Call [`Backbone::forward`] first; the export snapshots whatever the
    /// final embeddings currently hold.
    fn export(&self) -> ModelArtifact {
        ModelArtifact::from_embeddings(
            self.name(),
            self.user_factors(),
            self.item_factors(),
            self.eval_score(),
        )
    }
}

/// Serializable backbone selector used by experiment configs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum BackboneConfig {
    /// Matrix factorization.
    Mf,
    /// CML: MF body, unit-ball projection, distance scores.
    Cml,
    /// LightGCN with `layers` propagation hops.
    LightGcn {
        /// Number of propagation layers.
        layers: usize,
    },
    /// NGCF with `layers` nonlinear propagation layers.
    Ngcf {
        /// Number of propagation layers.
        layers: usize,
    },
    /// LR-GCCF: linear residual GCN.
    LrGccf {
        /// Number of propagation layers.
        layers: usize,
    },
    /// SGL: LightGCN + edge-dropout InfoNCE.
    Sgl {
        /// Number of propagation layers.
        layers: usize,
        /// Edge dropout probability per view.
        dropout: f32,
        /// Weight of the self-supervised loss.
        ssl_reg: f32,
        /// InfoNCE temperature.
        ssl_tau: f32,
    },
    /// SimGCL (the paper's "SimSGL"): LightGCN + noise-view InfoNCE.
    SimGcl {
        /// Number of propagation layers.
        layers: usize,
        /// Noise magnitude ε.
        eps: f32,
        /// Weight of the self-supervised loss.
        ssl_reg: f32,
        /// InfoNCE temperature.
        ssl_tau: f32,
    },
    /// LightGCL-lite: LightGCN + randomized-SVD view InfoNCE.
    LightGcl {
        /// Number of propagation layers.
        layers: usize,
        /// Rank of the SVD view.
        rank: usize,
        /// Weight of the self-supervised loss.
        ssl_reg: f32,
        /// InfoNCE temperature.
        ssl_tau: f32,
    },
}

impl BackboneConfig {
    /// Short display name matching the paper's tables.
    pub fn label(&self) -> &'static str {
        match self {
            BackboneConfig::Mf => "MF",
            BackboneConfig::Cml => "CML",
            BackboneConfig::LightGcn { .. } => "LGN",
            BackboneConfig::Ngcf { .. } => "NGCF",
            BackboneConfig::LrGccf { .. } => "LR-GCCF",
            BackboneConfig::Sgl { .. } => "SGL",
            BackboneConfig::SimGcl { .. } => "SimGCL",
            BackboneConfig::LightGcl { .. } => "LightGCL",
        }
    }
}

/// Instantiates the backbone described by `cfg` on `ds` with base embedding
/// size `dim`, Xavier-initialized from `seed`.
pub fn build(cfg: BackboneConfig, ds: &Arc<Dataset>, dim: usize, seed: u64) -> Box<dyn Backbone> {
    match cfg {
        BackboneConfig::Mf => Box::new(crate::mf::Mf::new(ds, dim, seed)),
        BackboneConfig::Cml => Box::new(crate::mf::Mf::new_cml(ds, dim, seed)),
        BackboneConfig::LightGcn { layers } => Box::new(LightGcn::new(ds, dim, layers, seed)),
        BackboneConfig::Ngcf { layers } => Box::new(crate::ngcf::Ngcf::new(ds, dim, layers, seed)),
        BackboneConfig::LrGccf { layers } => Box::new(LightGcn::lr_gccf(ds, dim, layers, seed)),
        BackboneConfig::Sgl { .. }
        | BackboneConfig::SimGcl { .. }
        | BackboneConfig::LightGcl { .. } => {
            Box::new(crate::contrastive::Contrastive::new(cfg, ds, dim, seed))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsl_data::synth::{generate, SynthConfig};
    use rand::SeedableRng;

    #[test]
    fn build_constructs_every_backbone() {
        let ds = Arc::new(generate(&SynthConfig::tiny(1)));
        let cfgs = [
            BackboneConfig::Mf,
            BackboneConfig::Cml,
            BackboneConfig::LightGcn { layers: 2 },
            BackboneConfig::Ngcf { layers: 2 },
            BackboneConfig::LrGccf { layers: 2 },
            BackboneConfig::Sgl { layers: 2, dropout: 0.1, ssl_reg: 0.1, ssl_tau: 0.2 },
            BackboneConfig::SimGcl { layers: 2, eps: 0.1, ssl_reg: 0.1, ssl_tau: 0.2 },
            BackboneConfig::LightGcl { layers: 2, rank: 4, ssl_reg: 0.1, ssl_tau: 0.2 },
        ];
        let mut rng = StdRng::seed_from_u64(0);
        for cfg in cfgs {
            let mut bb = build(cfg, &ds, 8, 7);
            bb.forward(&mut rng);
            assert_eq!(bb.n_users(), ds.n_users, "{}", bb.name());
            assert_eq!(bb.n_items(), ds.n_items, "{}", bb.name());
            assert_eq!(bb.user_factors().rows(), ds.n_users, "{}", bb.name());
            assert_eq!(bb.item_factors().rows(), ds.n_items, "{}", bb.name());
            assert_eq!(bb.user_factors().cols(), bb.out_dim(), "{}", bb.name());
            assert!(
                bb.user_factors().as_slice().iter().all(|v| v.is_finite()),
                "{} produced non-finite embeddings",
                bb.name()
            );
        }
    }

    #[test]
    fn export_prepares_tables_per_eval_score() {
        let ds = Arc::new(generate(&SynthConfig::tiny(2)));
        let mut rng = StdRng::seed_from_u64(3);
        for cfg in [BackboneConfig::Mf, BackboneConfig::Cml, BackboneConfig::LightGcn { layers: 2 }]
        {
            let mut bb = build(cfg, &ds, 8, 11);
            bb.forward(&mut rng);
            let art = bb.export();
            assert_eq!(art.backbone(), bb.name());
            assert_eq!(art.similarity(), bb.eval_score());
            assert_eq!(art.n_users(), ds.n_users);
            assert_eq!(art.n_items(), ds.n_items);
            match bb.eval_score() {
                // CML bakes the distance augmentation: one extra column.
                EvalScore::NegSqDist => assert_eq!(art.dim(), bb.out_dim() + 1),
                _ => assert_eq!(art.dim(), bb.out_dim()),
            }
            if bb.eval_score() == EvalScore::Cosine {
                let r = art.items().row(0);
                let n: f32 = r.iter().map(|x| x * x).sum::<f32>().sqrt();
                assert!((n - 1.0).abs() < 1e-5, "{}: unnormalized export", bb.name());
            }
        }
    }

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(BackboneConfig::Mf.label(), "MF");
        assert_eq!(BackboneConfig::LightGcn { layers: 3 }.label(), "LGN");
        assert_eq!(
            BackboneConfig::SimGcl { layers: 2, eps: 0.1, ssl_reg: 0.1, ssl_tau: 0.2 }.label(),
            "SimGCL"
        );
    }
}
