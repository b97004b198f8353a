#!/usr/bin/env bash
# The workspace static-analysis gate, runnable locally and in CI:
#
#   scripts/audit.sh                  # bsl-audit lints + clippy
#   AUDIT_STRESS=1 scripts/audit.sh   # + seeded hot-swap / engine interleave harness
#
# Everything shares one exit code so CI needs exactly one gate step.
# bsl-audit enforces the conventions README.md documents under
# "Correctness tooling": SAFETY-justified unsafe (+ checked-in inventory),
# ORDERING-justified atomics, allocation-free hot paths, and
# dispatch-module-only #[target_feature] kernels. A failing run prints
# file:line diagnostics; waive with
# `// bsl-audit: allow(<lint>) -- <reason>` registered in
# audit/waivers.toml.
set -uo pipefail
cd "$(dirname "$0")/.."

fail=0

echo "== bsl-audit check =="
cargo run -q -p bsl-audit -- check || fail=1

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings || fail=1

if [[ "${AUDIT_STRESS:-0}" == "1" ]]; then
    echo "== hot-swap + engine interleave stress (--cfg audit_stress) =="
    # The cfg compiles seeded schedule-perturbation hooks into SwapSlot's
    # load/swap windows and between the steps of ServeEngine::recommend
    # (1, 2 and 3 lanes); a failure replays with the printed seed.
    RUSTFLAGS="${RUSTFLAGS:-} --cfg audit_stress" \
        BSL_STRESS_SEED="${BSL_STRESS_SEED:-42}" \
        cargo test -q -p bsl-serve --test interleave || fail=1
fi

if [[ "$fail" -ne 0 ]]; then
    echo "audit: FAILED (see diagnostics above)" >&2
fi
exit "$fail"
