#!/usr/bin/env bash
# Prints the Rust line count of `crates tests examples`, the figure the
# deletion sweep in ROADMAP.md tracks:
#
#   scripts/loc.sh          the working tree
#   scripts/loc.sh <rev>    a `git archive` of <rev> (nothing in the
#                           repository's own git state changes)
#
# The count is every line of every `*.rs` file under those directories.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
dirs=(crates tests examples)

count() {
    find "${dirs[@]}" -name '*.rs' -type f -print0 | xargs -0 cat | wc -l
}

if [[ $# -eq 0 ]]; then
    cd "$root"
    count
else
    tree="$(mktemp -d)"
    trap 'rm -rf "$tree"' EXIT
    git -C "$root" archive "$1" -- "${dirs[@]}" | tar -x -C "$tree"
    cd "$tree"
    count
fi
