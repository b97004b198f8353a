// The duet driver. This file is compiled twice (see `sides.rs`): once with
// the `k_*` aliases bound to the product crates and once bound to the frozen
// reference, so both sides run literally the same driver code on the same
// inputs. It may only use API that exists on both sides.

use crate::inputs::{Req, ServeInputs, TOP_K};
use crate::spec::{Answer, Conn, ServeSide, ServeSpec, TrainSide, TrainSpec};
use k_core::{SamplingConfig, TrainConfig, Trainer};
use k_data::synth::{generate, SynthConfig};
use k_data::Dataset;
use k_linalg::Matrix;
use k_losses::LossConfig;
use k_models::{Backbone, BackboneConfig, EvalScore, ModelArtifact};
use k_serve::{
    BatchPolicy, RecommendRequest, ServeClient, ServeEngine, ServeOptions, ServeScratch,
    ServeState, TcpFrontend,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The SIMD level this side's kernels dispatch to.
pub fn simd_level() -> String {
    k_linalg::simd::active().to_string()
}

pub fn synth_config(spec: &TrainSpec, seed: u64) -> SynthConfig {
    SynthConfig { n_users: spec.n_users, n_items: spec.n_items, ..SynthConfig::yelp_like(seed) }
}

pub fn train_config(spec: &TrainSpec, seed: u64) -> TrainConfig {
    TrainConfig {
        backbone: match spec.lightgcn_layers {
            None => BackboneConfig::Mf,
            Some(layers) => BackboneConfig::LightGcn { layers },
        },
        loss: LossConfig::Bsl { tau1: spec.tau1, tau2: spec.tau2 },
        sampling: if spec.in_batch { SamplingConfig::InBatch } else { SamplingConfig::Uniform },
        dim: spec.dim,
        epochs: 1,
        batch_size: spec.batch,
        negatives: spec.negatives,
        lr: spec.lr,
        eval_every: 1,
        patience: 0,
        seed,
        threads: spec.threads,
        ..TrainConfig::paper_default()
    }
}

pub struct Train {
    ds: Arc<Dataset>,
    backbone: Box<dyn Backbone>,
    cfg: TrainConfig,
}

impl TrainSide for Train {
    fn setup(spec: &TrainSpec, seed: u64) -> Self {
        let ds = Arc::new(generate(&synth_config(spec, seed)));
        let cfg = train_config(spec, seed);
        let backbone = k_models::build(cfg.backbone, &ds, cfg.dim, cfg.seed);
        Self { ds, backbone, cfg }
    }

    fn op(&mut self, chunk: u64) -> f64 {
        let trainer = Trainer::new(TrainConfig { seed: self.cfg.seed + chunk, ..self.cfg });
        trainer.fit_backbone(&self.ds, self.backbone.as_mut()).best.ndcg(20)
    }

    fn samples_per_op(&self) -> usize {
        self.ds.train.nnz()
    }
}

pub fn artifact_of(inputs: &ServeInputs, users: &[f32]) -> ModelArtifact {
    let users = Matrix::from_vec(inputs.n_users, inputs.dim, users.to_vec());
    let items = Matrix::from_vec(inputs.n_items, inputs.dim, inputs.items.clone());
    ModelArtifact::from_embeddings("MF", &users, &items, EvalScore::Cosine)
}

fn answer_of(resp: k_serve::RecommendResponse) -> Answer {
    Answer {
        version: resp.version,
        items: resp.recs.iter().map(|r| r.item).collect(),
        scores: resp.recs.iter().map(|r| r.score).collect(),
    }
}

pub enum SideConn {
    Tcp { client: ServeClient, files: [String; 2] },
    InProc(Arc<ServeEngine>),
}

impl Conn for SideConn {
    fn call(&mut self, req: &Req) -> Result<Answer, String> {
        let tenant = ServeEngine::DEFAULT_TENANT;
        match (self, req) {
            (Self::Tcp { client, .. }, Req::Recommend { user }) => client
                .recommend(tenant, RecommendRequest::new(*user, TOP_K))
                .map(answer_of)
                .map_err(|e| e.to_string()),
            (Self::Tcp { client, .. }, Req::ScoreItems { user, items }) => client
                .score_items(tenant, *user, items)
                .map(|(version, scores)| Answer { version, scores, items: Vec::new() })
                .map_err(|e| e.to_string()),
            (Self::Tcp { client, .. }, Req::Stats) => {
                client.stats().map(|_| Answer::default()).map_err(|e| e.to_string())
            }
            (Self::Tcp { client, files }, Req::Swap { to_b }) => client
                .swap_artifact(tenant, &files[usize::from(*to_b)])
                .map(|version| Answer { version, ..Answer::default() })
                .map_err(|e| e.to_string()),
            (Self::InProc(engine), Req::Recommend { user }) => engine
                .recommend(tenant, RecommendRequest::new(*user, TOP_K))
                .map(answer_of)
                .map_err(|e| e.to_string()),
            (Self::InProc(_), other) => Err(format!("in-process handle cannot send {other:?}")),
        }
    }
}

pub struct Serve {
    engine: Arc<ServeEngine>,
    frontend: Option<TcpFrontend>,
    conns: Vec<SideConn>,
    dir: PathBuf,
    /// Exact f32 states of generations A and B, built on first use.
    oracle: [Option<ServeState>; 2],
    scratch: ServeScratch,
}

impl ServeSide for Serve {
    type Conn = SideConn;

    fn setup(spec: &ServeSpec, inputs: &ServeInputs, dir: &Path) -> Self {
        let mut artifact = artifact_of(inputs, &inputs.users);
        if spec.ivf {
            artifact = artifact.quantize();
            artifact.build_default_ivf();
        }
        let mut files = [String::new(), String::new()];
        if spec.tcp_conns > 0 {
            // Generation files for `swap_artifact`: A is what starts out
            // being served, B the same items under the reversed user table.
            std::fs::create_dir_all(dir).expect("creating the rig's scratch directory");
            let b = artifact_of(inputs, &inputs.users_b);
            for (file, (name, art)) in
                files.iter_mut().zip([("gen_a.bsla", &artifact), ("gen_b.bsla", &b)])
            {
                let path = dir.join(name);
                art.save(&path).expect("saving a generation file");
                *file = path.to_str().expect("utf-8 scratch path").to_string();
            }
        }
        let engine = ServeEngine::single_tenant(ServeState::new(artifact), BatchPolicy::default());
        let mut frontend = None;
        let mut conns = Vec::new();
        if spec.tcp_conns > 0 {
            let fe = TcpFrontend::start(Arc::clone(&engine), "127.0.0.1:0").expect("loopback");
            for _ in 0..spec.tcp_conns {
                let client = ServeClient::connect(fe.local_addr()).expect("connecting a client");
                conns.push(SideConn::Tcp { client, files: files.clone() });
            }
            frontend = Some(fe);
        } else {
            conns.extend((0..2).map(|_| SideConn::InProc(Arc::clone(&engine))));
        }
        Self {
            engine,
            frontend,
            conns,
            dir: dir.to_path_buf(),
            oracle: [None, None],
            scratch: ServeScratch::new(),
        }
    }

    fn conns(&mut self) -> &mut [SideConn] {
        &mut self.conns
    }

    fn exact(&mut self, inputs: &ServeInputs, generation: u64, user: u32) -> Answer {
        let g = (generation % 2) as usize;
        let state = self.oracle[g].get_or_insert_with(|| {
            let users = if g == 0 { &inputs.users } else { &inputs.users_b };
            ServeState::new(artifact_of(inputs, users))
        });
        let req = RecommendRequest { user, k: TOP_K, opts: ServeOptions::exact() };
        answer_of(state.respond(&req, &mut self.scratch).expect("oracle user in range"))
    }

    fn avg_batch(&self) -> f64 {
        self.engine.stats().avg_batch
    }

    fn shutdown(mut self) {
        self.conns.clear();
        if let Some(mut fe) = self.frontend.take() {
            fe.stop();
        }
        self.engine.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
