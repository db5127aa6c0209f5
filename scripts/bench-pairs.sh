#!/usr/bin/env bash
# Paired benchmark runs of two versions of this repository
# (/opt/skills/guides/choosing-metrics §8; the procedure PRs 16-18 report).
#
#   scripts/bench-pairs.sh A B WORKLOAD [N=10]
#
# A and B are each a git ref (exported with `git archive` into a scratch
# directory, so nothing is registered in .git) or a directory holding a
# checkout — `.` benches the working tree, uncommitted changes included.
# Each side is built and run by its OWN bench/run.sh, with identical
# flags; pair k runs A first when k is odd and B first when k is even, so
# neither side always inherits the other's warm caches or thermal state.
# Per end-to-end metric of BENCHMARK.json it prints both medians, both
# interquartile ranges, how many pairs B won (ties count for neither),
# whether B's median is outside A's IQR and whether it is worse than A's by
# more than the metric's bound; then failed/attempted per side.
#
# Environment: SEED (5), SECONDS_PER_RUN (10), SCENE (unset; e.g. 11 for
# the hold-out scene), TRACE (0), SCRATCH (a mktemp directory, removed on
# exit unless set).
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	sed -n '2,21p' "$0" | sed 's/^# \{0,1\}//' >&2
	exit 2
fi
ref_a=$1 ref_b=$2 workload=$3 pairs=${4:-10}
seed=${SEED:-5} seconds=${SECONDS_PER_RUN:-10} trace=${TRACE:-0}
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
command -v python3 >/dev/null || { echo "bench-pairs: python3 is needed for the summary" >&2; exit 1; }

if [ -n "${SCRATCH:-}" ]; then
	scratch=$SCRATCH
	mkdir -p "$scratch"
else
	scratch=$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")
	trap 'rm -rf "$scratch"' EXIT
fi

# checkout SIDE REF prints the directory SIDE runs in.
checkout() {
	if [ -d "$2" ]; then
		(cd "$2" && pwd)
		return
	fi
	local dir="$scratch/$1"
	rm -rf "$dir"
	mkdir -p "$dir"
	git -C "$root" archive "$2" | tar -x -C "$dir"
	echo "$dir"
}
dir_a=$(checkout a "$ref_a")
dir_b=$(checkout b "$ref_b")

flags=(--workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace")
if [ -n "${SCENE:-}" ]; then flags+=(--scene "$SCENE"); fi

# run SIDE DIR appends the run's JSON result (the last stdout line) to
# SIDE's result file; a run that exits non-zero still counts, as failed.
run() {
	local out
	if ! out=$(cd "$2" && bash bench/run.sh "${flags[@]}" 2>"$scratch/$1.stderr" | tail -n 1) || [ -z "$out" ]; then
		out='{"crashed": true}'
		echo "bench-pairs: $1 run failed; stderr in $scratch/$1.stderr" >&2
	fi
	echo "$out" >>"$scratch/$1.jsonl"
}

: >"$scratch/a.jsonl"
: >"$scratch/b.jsonl"
echo "A = $ref_a ($dir_a)" >&2
echo "B = $ref_b ($dir_b)" >&2
echo "bench/run.sh ${flags[*]}, $pairs pairs" >&2
for k in $(seq 1 "$pairs"); do
	if [ $((k % 2)) -eq 1 ]; then
		run a "$dir_a"; run b "$dir_b"
	else
		run b "$dir_b"; run a "$dir_a"
	fi
	echo "pair $k/$pairs done" >&2
done

python3 - "$root/BENCHMARK.json" "$scratch/a.jsonl" "$scratch/b.jsonl" "$workload" <<'EOF'
import json, statistics, sys

bench, fa, fb, workload = sys.argv[1:5]
runs = {s: [json.loads(l) for l in open(f)] for s, f in (("A", fa), ("B", fb))}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], statistics.median(xs), q[2]

print(f"{workload}: {len(runs['A'])} pairs")
print(f"{'metric':24} {'A median':>12} {'A IQR':>10} {'B median':>12} {'B IQR':>10} {'change':>8}  B wins/ties  outside A's IQR")
for m in json.load(open(bench))["end_to_end"]:
    name, higher = m["name"], m["better"] == "higher"
    pairs = [(a["metrics"][name]["value"], b["metrics"][name]["value"])
             for a, b in zip(runs["A"], runs["B"])
             if name in a.get("metrics", {}) and name in b.get("metrics", {})]
    if not pairs:
        print(f"{name:24} no pair reported it")
        continue
    a1, am, a3 = quartiles([p[0] for p in pairs])
    b1, bm, b3 = quartiles([p[1] for p in pairs])
    wins = sum(1 for a, b in pairs if (b > a) == higher and a != b)
    ties = sum(1 for a, b in pairs if a == b)
    change = f"{(bm - am) / am * 100:+.1f}%" if am else "n/a"
    gain = (bm - am) if higher else (am - bm)
    verdict = "better" if gain > a3 - a1 else "worse" if -gain > a3 - a1 else "inside"
    if am and -gain / abs(am) > m["bound"]:
        verdict += f", OVER THE {m['bound']:.0%} BOUND"
    print(f"{name:24} {am:12.4g} {a3 - a1:10.3g} {bm:12.4g} {b3 - b1:10.3g} {change:>8}  {wins:>2}/{len(pairs)} ties {ties:<3} {verdict} ({m['unit']}, {m['better']} is better)")
bad = 0
for s in "AB":
    failed = sum(r.get("failed", 0) for r in runs[s])
    attempted = sum(r.get("attempted", 0) for r in runs[s])
    wrong = sum(1 for r in runs[s] if not r.get("correct", False))
    print(f"{s}: {failed} failed / {attempted} attempted, {wrong} of {len(runs[s])} runs crashed or missed the oracle")
    bad += failed + wrong
sys.exit(1 if bad else 0)
EOF
