#!/usr/bin/env bash
# Drives the serving load generator (crates/bench/src/bin/load_gen.rs).
#
#   scripts/load_gen.sh            # both passes below
#   scripts/load_gen.sh inproc     # batched vs unbatched engine at saturation
#   scripts/load_gen.sh tcp        # TCP server smoke: 1k mixed requests, p99 gate,
#                                  # shutdown frame, clean join
#
# Environment knobs:
#   P99_BUDGET_US  fail the tcp pass if p99 exceeds this (default 200000)
#
# Both passes fail on any request error.
#
# The `serve_*` lines on stdout are grep-stable; CI's bench-smoke job greps
# them.
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"
case "$mode" in all | inproc | tcp) ;; *)
    echo "usage: scripts/load_gen.sh [all|inproc|tcp]" >&2
    exit 2
    ;;
esac

cargo build --release -p bsl-bench --bin load_gen
bin=target/release/load_gen

if [[ "$mode" == "inproc" || "$mode" == "all" ]]; then
    # The same saturating closed-loop request stream through the engine
    # with max_batch=1 and with max_batch=32; both score on every core, so
    # the ratio is reported, not gated. Default workload: 32k-item
    # catalogue at d=64 (~8 MiB item table, past L2), concurrency 16.
    "$bin" --mode inproc
fi

if [[ "$mode" == "tcp" || "$mode" == "all" ]]; then
    # The wire-protocol smoke: start a TCP front end in process, fire 1k
    # mixed requests (recommend / score_items / stats) from 8 concurrent
    # connections, gate on p99, then shut down via a shutdown frame and
    # join every thread. A smaller catalogue keeps this fast — it checks
    # plumbing and tail latency, not scoring throughput.
    "$bin" --mode tcp --with-server --requests 1000 --concurrency 8 \
        --items 4096 --dim 32 --p99-budget-us "${P99_BUDGET_US:-200000}" --shutdown
fi
