//! The four workloads: what each runs, why, and how much of it fits a run.

use crate::duet::{Load, Plan};
use crate::probes::Shapes;
use crate::spec::{ServeSpec, TrainSpec};

pub enum Kind {
    Train(TrainSpec),
    Serve(ServeSpec, Load),
}

pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists and the percentile its `op_tail_x` is taken
    /// at (one line, at most 200 characters: it goes into BENCHMARK.json).
    pub why: &'static str,
    pub kind: Kind,
    /// Rig generations of a full-length (30 s) run: each is one timed
    /// set-up pair and a fresh pair of rigs (see `duet::Plan`).
    pub generations: usize,
    /// Slice pairs each generation runs (even).
    pub pairs_per_generation: usize,
    /// Set-up pairs each generation times beyond the one that builds its
    /// rigs (see `duet::Plan`).
    pub extra_setups: usize,
    /// The reference's set-up time on the defining host, which `setup_s`
    /// multiplies its paired ratio by.
    pub ref_setup_s: f64,
}

/// The run length every pinned number and pair count refers to.
pub const FULL_SECONDS: f64 = 30.0;

/// Yelp2018's catalogue (Wu et al., Table II): 38,048 items, d = 64.
const YELP_ITEMS: usize = 38_048;
const SERVE_USERS: usize = 8_192;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "train_mf_sampled",
        why: "MF+BSL, 64 uniform negatives, B=512, d=64, 1 thread, 1200x2500 yelp-like data: the paper's \
              headline path (sampling, gather, scores_block, exp/ln, backward, Adam). \
              op_tail_x: p69 of 32 pair ratios",
        kind: Kind::Train(TrainSpec {
            n_users: 1200,
            n_items: 2500,
            lightgcn_layers: None,
            in_batch: false,
            negatives: 64,
            batch: 512,
            dim: 64,
            threads: 1,
            lr: 3e-3,
            tau1: 0.3,
            tau2: 0.2,
        }),
        generations: 4,
        pairs_per_generation: 8,
        extra_setups: 1,
        ref_setup_s: 0.205,
    },
    Workload {
        name: "train_lgn_inbatch_t2",
        why: "LightGCN(2)+BSL, in-batch negatives, 2 threads, 400x800 cache-resident data: the work \
              moves to spmm, the BxB block, WorkerPool, ShardGrad, SamplerPool. \
              op_tail_x: p69 of 32 pair ratios",
        kind: Kind::Train(TrainSpec {
            n_users: 400,
            n_items: 800,
            lightgcn_layers: Some(2),
            in_batch: true,
            negatives: 1,
            batch: 512,
            dim: 64,
            threads: 2,
            lr: 3e-3,
            tau1: 0.3,
            tau2: 0.2,
        }),
        generations: 4,
        pairs_per_generation: 8,
        extra_setups: 3,
        ref_setup_s: 0.023,
    },
    Workload {
        name: "serve_exact_tcp_closed",
        why: "8192 users x 38048 items x 64 f32 exact scan over framed TCP, 2 closed-loop connections, \
              14/1/1 mix, swap_artifact every 4th slice: protocol, engine, streaming scan, topk. \
              op_tail_x: slice p98.4",
        kind: Kind::Serve(
            ServeSpec { n_users: SERVE_USERS, n_items: YELP_ITEMS, dim: 64, ivf: false, tcp_conns: 2 },
            Load::Closed { per_conn: 320, swap_every: 4, limit_s: 0.010 },
        ),
        generations: 4,
        pairs_per_generation: 8,
        extra_setups: 4,
        ref_setup_s: 0.12,
    },
    Workload {
        name: "serve_ivf_inproc_open",
        why: "The same catalogue as int8+IVF (default nlist, nprobe) via ServeEngine::recommend in \
              process, Poisson 600/s timed from due time: ivf probe, int8 gather, select, \
              queueing. op_tail_x: slice p94.4",
        kind: Kind::Serve(
            ServeSpec { n_users: SERVE_USERS, n_items: YELP_ITEMS, dim: 64, ivf: true, tcp_conns: 0 },
            Load::Open { rate: 600.0, per_slice: 180, limit_s: 0.005 },
        ),
        generations: 6,
        pairs_per_generation: 4,
        extra_setups: 0,
        ref_setup_s: 0.64,
    },
];

/// Stock `yelp_like` MF with sampled negatives: the training shapes a
/// serving workload's traced run probes the training layers on.
const STOCK_TRAIN: TrainSpec = TrainSpec {
    n_users: 700,
    n_items: 800,
    lightgcn_layers: None,
    in_batch: false,
    negatives: 64,
    batch: 512,
    dim: 64,
    threads: 1,
    lr: 3e-3,
    tau1: 0.3,
    tau2: 0.2,
};

impl Workload {
    /// The shapes the traced run probes every layer on: the workload's own
    /// where it has them; off its path, a catalogue the size of its dataset
    /// (training workloads) or the stock training set (serving workloads).
    pub fn probe_shapes(&self) -> Shapes {
        match &self.kind {
            Kind::Train(t) => Shapes {
                train: *t,
                serve: ServeSpec {
                    n_users: t.n_users,
                    n_items: t.n_items,
                    dim: t.dim,
                    ivf: false,
                    tcp_conns: 0,
                },
            },
            Kind::Serve(s, _) => Shapes { train: STOCK_TRAIN, serve: *s },
        }
    }

    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The share of the full plan that fits `seconds`. A traced run spends
    /// two thirds of its time on the per-layer probes.
    pub fn plan(&self, seconds: f64, trace: bool) -> Plan {
        let share = (seconds / FULL_SECONDS).min(1.0) * if trace { 1.0 / 3.0 } else { 1.0 };
        let generations = ((self.generations as f64 * share).round() as usize).max(1);
        let pairs = self.generations * self.pairs_per_generation;
        let per_generation = (pairs as f64 * share / generations as f64 / 2.0).round() as usize;
        Plan {
            generations,
            pairs_per_generation: 2 * per_generation.max(1),
            extra_setups: (self.extra_setups as f64 * share).round() as usize,
            trace,
        }
    }
}
