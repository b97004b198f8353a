//! What a workload asks of a side, in plain data, and the traits through
//! which the duet runner drives the two instantiations of `side.rs`.

use crate::inputs::{Req, ServeInputs};
use std::path::Path;

/// A training workload's shape and hyper-parameters.
#[derive(Clone, Copy, Debug)]
pub struct TrainSpec {
    pub n_users: usize,
    pub n_items: usize,
    /// `None` trains plain MF, `Some(k)` LightGCN with `k` layers.
    pub lightgcn_layers: Option<usize>,
    /// In-batch negatives instead of `negatives` uniform draws per row.
    pub in_batch: bool,
    pub negatives: usize,
    pub batch: usize,
    pub dim: usize,
    pub threads: usize,
    pub lr: f32,
    pub tau1: f32,
    pub tau2: f32,
}

/// A serving workload's catalogue and front end.
#[derive(Clone, Copy, Debug)]
pub struct ServeSpec {
    pub n_users: usize,
    pub n_items: usize,
    pub dim: usize,
    /// Serve the int8-quantized artifact through its default IVF index.
    pub ivf: bool,
    /// Framed TCP with this many client connections; 0 calls the engine in
    /// process.
    pub tcp_conns: usize,
}

/// A side's answer to one request, in plain data. `Stats` and `Swap`
/// answers carry no scores; `ScoreItems` answers carry no items.
#[derive(Clone, Debug, Default)]
pub struct Answer {
    /// The artifact generation that answered (1 = the initial artifact).
    pub version: u64,
    pub items: Vec<u32>,
    pub scores: Vec<f32>,
}

/// One training rig: dataset, backbone and the means to run one op.
pub trait TrainSide: Sized {
    /// Everything from the spec to ready-for-the-first-op.
    fn setup(spec: &TrainSpec, seed: u64) -> Self;
    /// One op: a fresh `Trainer` seeded `seed + chunk`, one `fit_backbone`
    /// epoch on the rig's backbone, export and evaluation. Returns NDCG@20.
    fn op(&mut self, chunk: u64) -> f64;
    /// Training samples one op consumes (the work unit of `speed_x`).
    fn samples_per_op(&self) -> usize;
}

/// One client connection (or in-process handle) to a side's server.
pub trait Conn: Send {
    fn call(&mut self, req: &Req) -> Result<Answer, String>;
}

/// One serving rig: artifact, state, engine, front end and clients.
pub trait ServeSide: Sized {
    type Conn: Conn;
    /// Everything from the embedding tables to ready-for-the-first-request.
    /// `dir` is a scratch directory of this rig's own for artifact files.
    fn setup(spec: &ServeSpec, inputs: &ServeInputs, dir: &Path) -> Self;
    fn conns(&mut self) -> &mut [Self::Conn];
    /// The oracle: exact f32 top-k for `user` from the embedding tables of
    /// `generation` (0 = A, 1 = B), computed on the caller's thread.
    fn exact(&mut self, inputs: &ServeInputs, generation: u64, user: u32) -> Answer;
    /// Mean micro-batch size so far, from the engine's own counters.
    fn avg_batch(&self) -> f64;
    /// Stops the front end and engine and joins their threads.
    fn shutdown(self);
}
