#!/usr/bin/env bash
# Fails when the frozen reference differs from what freeze.sh wrote.
#
#   verify.sh            manifest check, plus a diff of every src/ file
#                        against `git show <commit>:` when history exists
#   verify.sh --manifest manifest check only (what run.sh does each run)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here"

manifest="$(grep -E '^[0-9a-f]{64}  \./' REFERENCE.md)"
sha256sum --check --quiet --strict <<<"$manifest" >&2 || {
    echo "reference: a frozen file was edited (see benchmark/reference/REFERENCE.md)" >&2
    exit 1
}
listed="$(sed -E 's/^[0-9a-f]{64}  //' <<<"$manifest")"
# Build and run leftovers (target/, Cargo.lock) are not part of the freeze.
present="$(find . -type f ! -name REFERENCE.md ! -name Cargo.lock ! -path './target/*' | LC_ALL=C sort)"
if [ "$listed" != "$present" ]; then
    echo "reference: file list differs from the manifest:" >&2
    diff <(echo "$listed") <(echo "$present") >&2 || true
    exit 1
fi
[ "${1:-}" = "--manifest" ] && exit 0

sha="$(sed -nE 's/^- \*\*Source commit:\*\* `([0-9a-f]{40})`$/\1/p' REFERENCE.md)"
if ! git rev-parse --verify --quiet "$sha^{commit}" >/dev/null 2>&1; then
    echo "reference: no git history for $sha here; manifest check only" >&2
    exit 0
fi
status=0
while read -r f; do
    case "$f" in
    ./crates/*/src/* | ./vendor/*/src/*)
        src="${f#./}"
        git show "$sha:$src" | cmp -s - "$f" || {
            echo "reference: $f differs from $sha:$src" >&2
            status=1
        }
        ;;
    esac
done <<<"$listed"
[ "$status" = 0 ] && echo "reference: identical to $sha" >&2
exit "$status"
