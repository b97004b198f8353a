#!/usr/bin/env bash
# Regenerates the frozen reference from a commit of this repository:
#
#   benchmark/reference/freeze.sh <commit>
#
# Copies `src/` of the ten library crates on the duet driver's surface and
# of the three vendored shims they link (rand, serde, serde_derive) verbatim
# from `git show <commit>:`, writes one minimal manifest per crate (no tests,
# benches, examples or dev-dependencies), and rewrites REFERENCE.md with the
# commit and the sha256 of every file. Needs git history; run it from a
# clone, never from the driver's checkout.
set -euo pipefail

sha="${1:?usage: freeze.sh <commit>}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
repo="$(git -C "$here" rev-parse --show-toplevel)"
sha="$(git -C "$repo" rev-parse --verify "$sha^{commit}")"

CRATES="core data eval linalg losses models opt sampling serve sparse"
SHIMS="rand serde serde_derive"
# Every frozen package carries this version, so that it and the product's
# package of the same name (0.1.0, 0.8.99, ...) coexist in one lockfile. It is
# written into each manifest: cargo resolves `version.workspace` of a path
# dependency against whichever workspace root it cached first, which here
# would be the product's.
VERSION="0.0.0"

rm -rf "$here/crates" "$here/vendor"

# copy_src <repo dir> <dest dir>: every file under <repo dir>/src at $sha.
copy_src() {
    git -C "$repo" ls-tree -r --name-only "$sha" -- "$1/src" | while read -r f; do
        mkdir -p "$2/$(dirname "${f#"$1"/}")"
        git -C "$repo" show "$sha:$f" >"$2/${f#"$1"/}"
    done
}

# dep_lines <manifest text>: the [dependencies] table rewritten to paths
# inside the reference (internal crates to ../<name>, shims to the frozen
# vendor copies).
dep_lines() {
    awk '
        /^\[/ { in_deps = ($0 == "[dependencies]") ; next }
        in_deps && /^[a-z]/ {
            name = $1
            if (name ~ /^bsl-/) { dir = name; sub(/^bsl-/, "", dir); path = "../" dir }
            else { path = "../../vendor/" name }
            printf "%s = { path = \"%s\" }\n", name, path
        }'
}

for c in $CRATES; do
    copy_src "crates/$c" "$here/crates/$c"
    manifest="$(git -C "$repo" show "$sha:crates/$c/Cargo.toml")"
    {
        echo "# Generated by freeze.sh from $sha:crates/$c/Cargo.toml — do not edit."
        echo "[package]"
        echo "name = \"bsl-$c\""
        echo "version = \"$VERSION\""
        echo "edition = \"2021\""
        echo
        echo "[lib]"
        echo "test = false"
        echo "doctest = false"
        echo "bench = false"
        echo
        echo "[dependencies]"
        dep_lines <<<"$manifest"
        echo
        # The product workspace's lint table at the frozen commit, so the
        # copied sources compile without new warnings.
        echo "[lints.rust]"
        echo "unsafe_code = \"deny\""
        echo "unexpected_cfgs = { level = \"warn\", check-cfg = [\"cfg(audit_stress)\"] }"
    } >"$here/crates/$c/Cargo.toml"
done

for v in $SHIMS; do
    copy_src "vendor/$v" "$here/vendor/$v"
    manifest="$(git -C "$repo" show "$sha:vendor/$v/Cargo.toml")"
    {
        echo "# Generated by freeze.sh from $sha:vendor/$v/Cargo.toml — do not edit."
        echo "[package]"
        echo "name = \"$v\""
        echo "version = \"$VERSION\""
        echo "edition = \"2021\""
        echo
        echo "[lib]"
        if grep -q '^proc-macro = true' <<<"$manifest"; then echo "proc-macro = true"; fi
        echo "test = false"
        echo "doctest = false"
        echo "bench = false"
        echo
        echo "[dependencies]"
        # Shim-to-shim edges are sibling paths already (serde -> ../serde_derive).
        awk '/^\[/ { d = ($0 == "[dependencies]"); next } d && /^[a-z]/' <<<"$manifest"
    } >"$here/vendor/$v/Cargo.toml"
done

{
    cat <<EOF
# Frozen reference

The duet benchmark links the product (\`../../crates/*\`) and this frozen copy
into one binary and reports every timing as product ÷ reference. The copy
must never change between runs that are compared, so \`../run.sh\` refuses to
run when any file here differs from the manifest below.

- **Source commit:** \`$sha\`
- **Crates:** $CRATES
- **Vendored shims:** $SHIMS (frozen too: the samplers' speed is the
  \`rand\` shim's speed)
- **What is copied:** every file under each crate's \`src/\`, verbatim.
  Per-crate \`tests/\`, \`benches/\`, \`[dev-dependencies]\` and
  \`[[test|example|bench]]\` targets are dropped; each \`Cargo.toml\` is
  generated (same \`[dependencies]\` edges, rewritten to paths in this
  directory) with \`version = "$VERSION"\`, so that the frozen packages and
  the product's packages of the same names coexist in one lockfile.
- **Regenerate:** \`benchmark/reference/freeze.sh <commit>\` (from a git
  clone). A re-freeze moves the baseline of every \`*_x\` metric and the
  pinned \`ref_setup_s\` values: it is a benchmark change of its own, never
  part of a change that claims a gain.
- **Check:** \`benchmark/reference/verify.sh\` checks the manifest and, when
  git history is available, diffs every \`src/\` file against
  \`git show <commit>:\`.

## Manifest

sha256 of every file under this directory except this one, in
\`sha256sum\` format (\`verify.sh\` reads it from here).

\`\`\`
EOF
    # Build leftovers (target/, Cargo.lock) are not part of the freeze.
    (cd "$here" && find . -type f ! -name REFERENCE.md ! -name Cargo.lock ! -path './target/*' |
        LC_ALL=C sort | xargs sha256sum)
    echo '```'
} >"$here/REFERENCE.md"

echo "froze $sha into $here" >&2
echo "now pin REFERENCE_MD_SHA256=$(sha256sum "$here/REFERENCE.md" | cut -d' ' -f1) in ../run.sh" >&2
