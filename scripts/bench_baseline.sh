#!/usr/bin/env bash
# Runs the full criterion suite and rewrites BENCHMARKS.md with the
# results plus enough machine context to interpret them.
#
#   scripts/bench_baseline.sh            # full measurement (minutes)
#   scripts/bench_baseline.sh --quick    # smoke-speed pass (sanity only)
#
# Commit the refreshed BENCHMARKS.md alongside any perf-relevant PR so
# reviewers can diff the baselines. Numbers come from the vendored
# criterion shim (wall-clock [min mean max], no outlier rejection) — they
# are comparable run-to-run on one machine, not across machines.
set -euo pipefail
cd "$(dirname "$0")/.."

extra_args=()
mode="full"
if [[ "${1:-}" == "--quick" ]]; then
    extra_args+=("--quick-smoke")
    mode="quick-smoke (sanity pass — do not commit as a baseline)"
fi

out=BENCHMARKS.md
bench_log=$(mktemp)
trap 'rm -f "$bench_log"' EXIT

cargo bench -p bsl-bench -- "${extra_args[@]:-}" 2>&1 | tee "$bench_log"

# The serving load generator is a closed-loop wall-clock benchmark, not a
# criterion target: run it separately and append its grep-stable serve_*
# lines (engine batched-vs-unbatched comparison + TCP front-end smoke).
serve_log=$(mktemp)
trap 'rm -f "$bench_log" "$serve_log"' EXIT
scripts/load_gen.sh all | tee "$serve_log"

# SIMD baselines are only comparable between machines with the same ISA:
# record the detected vector features and any compile-time target flags so
# a BENCHMARKS.md diff can't silently compare an AVX2 run against a
# scalar/NEON one.
cpu_features="unknown"
if [[ -r /proc/cpuinfo ]]; then
    cpu_features=$(grep -m1 -oE '^(flags|Features)[[:space:]]*:.*' /proc/cpuinfo |
        tr ' ' '\n' | grep -xE 'sse4_2|avx|avx2|fma|avx512f|asimd|neon' |
        sort -u | paste -sd' ' || true)
    cpu_features=${cpu_features:-none-detected}
fi
dispatch=$(grep -m1 -oE 'simd dispatch: .*' "$bench_log" | cut -d' ' -f3- || true)
# The serving benches announce the artifact format version and IVF index
# parameters they measured (printed by benches/serving.rs); pin them in
# the header so ANN numbers are never compared across configurations.
serving=$(grep -m1 -oE 'serving config: .*' "$bench_log" | cut -d' ' -f3- || true)

{
    echo "# Criterion baseline"
    echo
    echo "Generated by \`scripts/bench_baseline.sh\` — regenerate with the"
    echo "same command and commit the diff when a PR changes performance."
    echo
    echo "* date: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
    echo "* mode: ${mode}"
    echo "* rustc: $(rustc -V)"
    echo "* cores: $(nproc) ($(uname -sm))"
    echo "* cpu features: ${cpu_features}"
    echo "* RUSTFLAGS: ${RUSTFLAGS:-<unset>}"
    echo "* simd dispatch: ${dispatch:-${BSL_SIMD:-auto}} (override with BSL_SIMD=scalar|portable|avx2)"
    echo "* serving: ${serving:-unknown (serving benches did not run)}"
    echo
    echo "Each line is \`name time: [min mean max]\` per iteration from the"
    echo "vendored criterion shim. The \`*_scalar\` kernel benches pin the"
    echo "reference implementation, so dispatched-vs-scalar speedup reads"
    echo "directly off this file. The \`training_parallel\` group is the"
    echo "persistent-pool epoch engine: compare \`threads1\` (bit-exact"
    echo "serial baseline) against \`threads4\`; the acceptance target is"
    echo ">= 2x on a >= 4-core machine. On fewer cores the threadsN lines"
    echo "measure coordination overhead instead of speedup. Each threadsN"
    echo "target reuses one Trainer, so the measured epochs pay zero"
    echo "thread spawns (the engine spawns once, before timing). Per-worker"
    echo "gradient scratch is a batch-footprint ShardGrad (sparse row map,"
    echo "grow-only): peak trainer scratch is O(threads x batch x d)"
    echo "floats, not threads x catalogue — at the benchmarked threads=4,"
    echo "B=512, m=64, d=64 each worker's shard covers its 128-row chunk"
    echo "(~128 users + ~128*(1+64) item rows, ~2.2 MB; ~8.6 MB across"
    echo "the four workers) versus a dense (n_users+n_items) x d"
    echo "GradBuffer per worker before PR 4. The \`serving\` group is the"
    echo "frozen-artifact retrieval path: \`recommend_b64_k10_yelp_d64\`"
    echo "(a 64-user request batch, top-10, seen-items filtered) is the"
    echo "per-batch serving cost of the exact f32 full scan,"
    echo "\`ivf_recommend_b64_k10_yelp_d64\` is the identical request served"
    echo "through the format-v2 production artifact (int8 tables + IVF"
    echo "shortlist at the nlist/nprobe pinned in the header above; the"
    echo "acceptance target is >= 3x over the exact line),"
    echo "\`index_build_yelp_d64\` is the one-time k-means index build paid"
    echo "at export/load, \`evaluate_artifact_*\` in the evaluation group is"
    echo "the same scorer driven by offline eval, and"
    echo "\`artifact_codec_roundtrip_*\` bounds save/load overhead."
    echo
    echo '```text'
    # Keep only the measurement lines (drop cargo's compile/run chatter).
    grep -E 'time: \[' "$bench_log"
    echo '```'
    echo
    echo "## Serving load generator"
    echo
    echo "Closed-loop wall-clock numbers from \`scripts/load_gen.sh\` (not"
    echo "criterion). \`serve_qps\` drives the same saturating request"
    echo "stream (concurrency 16, 32k-item d=64 catalogue) through the"
    echo "engine with \`max_batch=1\` and with \`max_batch=32\`; both arms"
    echo "score on every core, so the ratio is reported, not gated. The"
    echo "\`serve_tcp_*\` lines are the framed TCP front end under 1k mixed"
    echo "requests (recommend/score_items/stats) from 8 connections; p99"
    echo "is the CI-gated tail."
    echo
    echo '```text'
    grep -E '^serve_' "$serve_log"
    echo '```'
} > "$out"

echo
echo "wrote $out"
