#!/usr/bin/env bash
# Entry point of the duet benchmark (BENCHMARK.json's `command`):
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash benchmark/run.sh --smoke | --aa N [--stress] | --benchmark-json
#
# Run it from the repository root. It refuses to run on an edited reference,
# builds the binary offline and hands the arguments over. RUSTFLAGS and
# BSL_SIMD are left as the caller set them: the benchmark measures the build
# and the dispatch level users get.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"

# sha256 of reference/REFERENCE.md, whose manifest pins every frozen file. A
# re-freeze has to change this line too: an edit to the reference cannot ride
# along unnoticed in a change that also claims a gain.
REFERENCE_MD_SHA256="d9a283605715e0c35d2c11534640ea769bdb8b02068e25589253f601466308b3"
echo "$REFERENCE_MD_SHA256  $here/reference/REFERENCE.md" | sha256sum --check --quiet --strict >&2 || {
    echo "run.sh: reference/REFERENCE.md is not the one this benchmark was defined with" >&2
    exit 1
}
bash "$here/reference/verify.sh" --manifest

# One target directory for every build of the benchmark; the driver names
# its own through CARGO_TARGET_DIR.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
BSL_DUET_RUSTC="$(rustc --version)" exec "$CARGO_TARGET_DIR/release/bsl-duet" --out "$here/out" "$@"
