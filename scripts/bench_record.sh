#!/usr/bin/env bash
# Records a parent → change comparison of the duet benchmark as
# BENCH_<pr>.json at the repository root:
#
#   scripts/bench_record.sh <pr> <parent> <seeds> [workload ...]
#
#   <pr>        the number the file is named after
#   <parent>    the commit the change is measured against
#   <seeds>     comma-separated seeds, e.g. 1,2,3,4,5,6,7,8,9,10: one pair
#               of runs (parent, change) per seed and workload
#   workload    BENCHMARK.json workload names (default: all of them)
#
# The change is the working tree; the parent is a `git archive` of
# <parent> unpacked beside it, so nothing in the repository's own git
# state changes. Each side's `bsl-duet` is built once, offline, into its
# own target directory. The pairs alternate order (ABBA: parent first on
# even pairs, change first on odd ones), so a drift of the host during the
# recording lands on both sides. Nothing else should run on the machine
# meanwhile: every `*_x` metric is a ratio against the frozen reference
# op, but the two sides still share the cores with whatever else runs.
#
# Environment: BENCH_SECONDS (default 30, the comparable run length) and
# BENCH_WORK (scratch directory, default a fresh `mktemp -d`, kept; reuse
# one to skip rebuilding). A later run against the same parent adds its
# workloads to an existing BENCH_<pr>.json, so workloads can take
# different seed lists.
#
# The file holds, per workload and end-to-end metric, the parent's and
# the change's median and quartiles, every pair, and how many pairs the
# change was ahead in (by the metric's `better` direction), plus the
# commits and the host block the runs printed. Read it as ratios: the
# cumulative gain over several PRs is the product of their change ÷ parent
# medians, which a drift of the host between recordings does not reach.
set -euo pipefail

if [[ $# -lt 3 ]]; then
    sed -n '2,11p' "$0" >&2
    exit 2
fi
pr="$1"
parent="$2"
IFS=',' read -r -a seeds <<<"$3"
shift 3

root="$(cd "$(dirname "$0")/.." && pwd)"
seconds="${BENCH_SECONDS:-30}"
work="${BENCH_WORK:-$(mktemp -d)}"
mkdir -p "$work/runs"
if [[ $# -gt 0 ]]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json,sys
for w in json.load(open(sys.argv[1]))["workloads"]: print(w["name"])' "$root/BENCHMARK.json")
fi

parent_commit="$(git -C "$root" rev-parse "$parent")"
change_commit="$(git -C "$root" rev-parse HEAD)"
dirty=false
if [[ -n "$(git -C "$root" status --porcelain --untracked-files=no)" ]]; then
    dirty=true
fi

echo "bench_record: parent tree of ${parent_commit:0:12} under $work/parent" >&2
rm -rf "$work/parent"
mkdir -p "$work/parent"
git -C "$root" archive "$parent_commit" | tar -x -C "$work/parent"

declare -A bin
for side in parent change; do
    src="$root"
    [[ "$side" == parent ]] && src="$work/parent"
    echo "bench_record: building the $side's bsl-duet" >&2
    CARGO_TARGET_DIR="$work/${side}_target" cargo build --release --offline --quiet \
        --manifest-path "$src/benchmark/Cargo.toml" >&2
    bin[$side]="$work/${side}_target/release/bsl-duet"
done

rustc_version="$(rustc --version)"
avx512f=false
if grep -qw avx512f /proc/cpuinfo 2>/dev/null; then
    avx512f=true
fi
run() { # side workload seed
    local out="$work/out-$1"
    echo "bench_record: $2 seed $3 $1" >&2
    rm -f "$out/result-$2-trace0.json"
    # A run whose outputs were wrong exits non-zero but still writes its
    # result, failures counted; a run that writes none stops the script.
    BSL_DUET_RUSTC="$rustc_version" "${bin[$1]}" --out "$out" --workload "$2" --seed "$3" \
        --seconds "$seconds" --trace 0 >/dev/null 2>"$work/runs/$2-$3-$1.log" || true
    cp "$out/result-$2-trace0.json" "$work/runs/$2-$3-$1.json"
}

pair=0
for w in "${workloads[@]}"; do
    for seed in "${seeds[@]}"; do
        if ((pair % 2 == 0)); then
            run parent "$w" "$seed"
            run change "$w" "$seed"
        else
            run change "$w" "$seed"
            run parent "$w" "$seed"
        fi
        pair=$((pair + 1))
    done
done

out="$root/BENCH_$pr.json"
python3 - "$root/BENCHMARK.json" "$work/runs" "$out" "$pr" "$parent_commit" "$change_commit" \
    "$dirty" "$seconds" "${workloads[*]}" "${seeds[*]}" "$avx512f" <<'EOF'
import json, re, statistics, sys
spec_path, runs, out, pr, parent, change, dirty, seconds, workloads, seeds, avx512f = sys.argv[1:]
spec = json.load(open(spec_path))
seeds = [int(s) for s in seeds.split()]

def load(w, seed, side):
    return json.load(open(f"{runs}/{w}-{seed}-{side}.json"))

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

try:
    old = json.load(open(out))
except FileNotFoundError:
    old = {}
record = {
    "pr": int(pr),
    "commit": change,
    "dirty": dirty == "true",
    "change": "the working tree at `commit`, with uncommitted edits when `dirty`",
    "parent": parent,
    "reference": "882317d",
    "seconds": float(seconds),
    "order": "ABBA: parent first on even pairs, change first on odd ones",
    "host": None,
    "workloads": old.get("workloads", {}) if old.get("parent") == parent else {},
}
for w in workloads.split():
    entry = {"seeds": seeds, "failed": {"parent": 0, "change": 0}, "metrics": {}}
    for m in spec["end_to_end"]:
        name, better = m["name"], m["better"]
        pairs = []
        for seed in seeds:
            vals = []
            for side in ("parent", "change"):
                r = load(w, seed, side)
                record["host"] = record["host"] or {**r["host"], "avx512f": avx512f == "true"}
                vals.append(r["result"]["metrics"].get(name, {}).get("value"))
            if None not in vals:
                pairs.append([seed] + vals)
        if not pairs:
            continue
        sides = {}
        for i, side in ((1, "parent"), (2, "change")):
            q1, med, q3 = quartiles([p[i] for p in pairs])
            sides[side] = {"median": med, "q1": q1, "q3": q3}
        ahead = sum((p[2] > p[1]) if better == "higher" else (p[2] < p[1]) for p in pairs)
        entry["metrics"][name] = {
            "unit": m["unit"],
            "better": better,
            "bound": m["bound"],
            **sides,
            "change_over_parent": sides["change"]["median"] / sides["parent"]["median"]
            if sides["parent"]["median"]
            else None,
            "ahead": f"{ahead}/{len(pairs)}",
            "pairs": pairs,
        }
    for seed in seeds:
        for side in ("parent", "change"):
            entry["failed"][side] += load(w, seed, side)["result"]["failed"]
    record["workloads"][w] = entry
# One line per leaf list (a pair, the seeds), so the file stays readable.
text = json.dumps(record, indent=1)
text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
with open(out, "w") as f:
    f.write(text + "\n")
print(f"bench_record: wrote {out}", file=sys.stderr)
EOF
