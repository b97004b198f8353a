//! Every metric the benchmark prints, by name, unit and direction. The
//! single source of `BENCHMARK.json` (`bsl-duet --benchmark-json` prints it)
//! and of the units in each run's result line.

use crate::workloads::{FULL_SECONDS, WORKLOADS};
use std::fmt::Write;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The relative worsening that counts as a regression.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "speed_x", unit: "x", better: "higher", bound: 0.10 },
    EndToEnd { name: "op_p50_x", unit: "x", better: "lower", bound: 0.10 },
    EndToEnd { name: "op_tail_x", unit: "x", better: "lower", bound: 0.25 },
    EndToEnd { name: "quality", unit: "ratio", better: "higher", bound: 0.01 },
    EndToEnd { name: "slo_ok_ratio", unit: "ratio", better: "higher", bound: 0.01 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.10 },
];

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lo(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: "lower" }
}

const fn hi(name: &'static str, unit: &'static str) -> Layer {
    Layer { name, unit, better: "higher" }
}

pub const PER_LAYER: [Layer; 74] = [
    // Context: the host, the load generator, the raw numbers behind the
    // ratios, and the tracer itself.
    hi("host.fma_gflops", "GFLOP/s"),
    hi("host.stream_gbps", "GB/s"),
    lo("host.noise_ratio", "ratio"),
    hi("gen.pairs", "count"),
    lo("gen.late_p99_us", "us"),
    hi("raw.work_per_s", "1/s"),
    hi("raw.ref_work_per_s", "1/s"),
    lo("raw.op_p50_ms", "ms"),
    lo("raw.op_tail_ms", "ms"),
    lo("raw.setup_s", "s"),
    lo("raw.ref_setup_s", "s"),
    hi("raw.quality", "ratio"),
    lo("trace.spans", "count"),
    lo("trace.overhead_ratio", "ratio"),
    lo("data.generate_ms", "ms"),
    lo("sampling.batch_us", "us"),
    hi("sampling.draws_per_s", "1/s"),
    lo("sampling.pool_epoch_ms", "ms"),
    lo("linalg.gather_norm_us", "us"),
    hi("linalg.scores_gmacs", "GMAC/s"),
    lo("linalg.backward_us", "us"),
    hi("linalg.scores_bxb_gmacs", "GMAC/s"),
    lo("linalg.topk_us", "us"),
    hi("linalg.scores_i8_gmacs", "GMAC/s"),
    lo("linalg.select_scored_us", "us"),
    lo("losses.bsl_ns_per_score", "ns"),
    lo("losses.scores_per_op", "count"),
    lo("losses.bsl_bxb_ns_per_score", "ns"),
    lo("sparse.spmm_ms", "ms"),
    hi("sparse.spmm_gflops", "GFLOP/s"),
    lo("models.forward_ms", "ms"),
    lo("models.shard_merge_ms", "ms"),
    lo("models.step_ms", "ms"),
    lo("models.export_ms", "ms"),
    lo("models.quantize_ms", "ms"),
    lo("models.ivf_build_ms", "ms"),
    lo("models.save_ms", "ms"),
    lo("models.load_ms", "ms"),
    lo("models.artifact_bytes", "count"),
    lo("models.scan_us", "us"),
    hi("models.scan_gbps", "GB/s"),
    lo("models.probe_us", "us"),
    lo("models.shortlist_us", "us"),
    lo("models.shortlist_frac", "ratio"),
    lo("opt.adam_rows_us", "us"),
    lo("opt.rows_per_step", "count"),
    lo("eval.evaluate_ms", "ms"),
    hi("eval.users_per_s", "1/s"),
    lo("core.op_ms", "ms"),
    lo("core.stage_sum_ms", "ms"),
    lo("core.self_ms", "ms"),
    lo("core.unaccounted_ratio", "ratio"),
    lo("core.trainer_new_us", "us"),
    lo("core.pool_dispatch_us", "us"),
    lo("serve.state_us", "us"),
    lo("serve.state_self_us", "us"),
    lo("serve.batch2_us_per_req", "us"),
    lo("serve.batch32_us_per_req", "us"),
    lo("serve.codec_us", "us"),
    lo("serve.tcp_us", "us"),
    lo("serve.tcp_self_us", "us"),
    lo("serve.score_items_us", "us"),
    lo("serve.stats_us", "us"),
    lo("serve.swap_publish_us", "us"),
    lo("serve.swap_load_ms", "ms"),
    lo("serve.swap_stall_ms", "ms"),
    lo("serve.state_ivf_us", "us"),
    lo("serve.engine_us", "us"),
    lo("serve.engine_self_us", "us"),
    hi("serve.engine_avg_batch", "count"),
    lo("serve.p99_ms_r300", "ms"),
    lo("serve.p99_ms_r600", "ms"),
    lo("serve.p99_ms_r1200", "ms"),
    hi("serve.max_rate_ok", "1/s"),
];

/// The unit of a metric of either kind.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, u)| (n == name).then_some(u))
        .unwrap_or_else(|| panic!("metric {name} is not in the table"))
}

/// `BENCHMARK.json`, from the tables above and the workload list.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {},", FULL_SECONDS as u64);
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 == WORKLOADS.len() { "" } else { "," };
        assert!(w.why.len() <= 200, "{}: BENCHMARK.json allows a why of 200 characters", w.name);
        let _ = writeln!(s, "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}", w.name, w.why);
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}
