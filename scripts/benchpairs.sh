#!/usr/bin/env bash
# Paired end-to-end runs of the repo benchmark: the working tree against a
# git revision.
#
#   scripts/benchpairs.sh REV WORKLOAD PAIRS
#   (or: make benchpairs REV=HEAD WORKLOAD=mix.separate PAIRS=10)
#
# Exports REV as scripts/abbench.sh does (scripts/export.sh) and runs
# `bench/run.sh -workload WORKLOAD -seed S -seconds T -trace 0` in that export
# and in the working tree, PAIRS times, REV first in odd pairs, so a machine
# that drifts over minutes weighs on both sides alike. Pair i runs seed
# SEED+i-1 on both sides (SEED defaults to 1); T is BENCHMARK.json's
# run_seconds. Each side's run.sh builds the benchmark from its own checkout.
# A run that fails, or whose answers are wrong, stops the script.
#
# Each side's runs are written as a bench result file (base.json, head.json)
# and compared with the benchmark's own `bench -compare`, which prints both
# medians, how much worse the working tree is, each metric's bound, both
# spreads (interquartile range over median) and the bound verdict. Then, per
# metric, the script counts the pairs the working tree won and lost (ties
# count for neither side) and gives the paired-run verdict: "better" when the
# working tree wins at least nine tenths of the pairs and its median is
# better by more than the base's spread, "worse" by the same rule the other
# way, "-" otherwise. The gap and the spread are read from the -compare table
# (0.1 % resolution). Directions come from BENCHMARK.json. Needs jq. Exits 1
# when -compare finds a metric worse than its bound.
set -euo pipefail
if [ $# -ne 3 ]; then
	echo "usage: $0 REV WORKLOAD PAIRS" >&2
	exit 2
fi
rev=$1 workload=$2 pairs=$3
seed0=${SEED:-1}
root="$(git rev-parse --show-toplevel)"
seconds=$(jq -r .run_seconds "$root/BENCHMARK.json")
dir="$root/.bench_build/pairs"
. "$root/scripts/export.sh"
export_rev "$rev" "$dir"

# One run of side $1 with seed $2, appended to $dir/$1.jsonl as a bench
# runResult and echoed.
run() {
	local src="$root" line
	[ "$1" = base ] && src="$dir/base"
	line=$(bash "$src/bench/run.sh" -workload "$workload" -seed "$2" -seconds "$seconds" -trace 0 | tail -n 1)
	if [ "$(jq -r '.correct and .failed == 0' <<<"$line")" != true ]; then
		echo "$1 seed $2: run failed or answered wrong: $line" >&2
		exit 1
	fi
	jq -c --arg w "$workload" --argjson s "$2" \
		'{workload: $w, seed: $s, traced: false, attempted, failed, metrics: (.metrics | map_values(.value))}' \
		<<<"$line" | tee -a "$dir/$1.jsonl"
}

: >"$dir/base.jsonl"
: >"$dir/head.jsonl"
for ((i = 1; i <= pairs; i++)); do
	order="base head"
	((i % 2 == 0)) && order="head base"
	for side in $order; do
		echo -n "pair $i $side: "
		run "$side" $((seed0 + i - 1))
	done
done

for side in base head; do
	commit=$(git -C "$root" rev-parse "$rev")
	[ "$side" = head ] && commit="working tree on $(git -C "$root" rev-parse HEAD)"
	jq -s --arg c "$commit" --arg g "$(go env GOVERSION)" --argjson p "$(nproc)" --argjson t "$seconds" --argjson s "$seed0" \
		'{stamp: {commit: $c, go_version: $g, gomaxprocs: $p, scale: "full", seconds: $t, seed: $s, repeat: length}, runs: .}' \
		"$dir/$side.jsonl" >"$dir/$side.json"
done

echo
regressed=0
"$root/.bench_build/bench" -compare "$dir/base.json" "$dir/head.json" | tee "$dir/compare.txt" || regressed=1

# Pairs won and lost per metric, as "metric wins losses".
jq -r -n --slurpfile b "$dir/base.jsonl" --slurpfile h "$dir/head.jsonl" --slurpfile spec "$root/BENCHMARK.json" '
	$spec[0].end_to_end[] | .name as $m | (if .better == "lower" then -1 else 1 end) as $dir
	| [range($b | length) | ($h[.].metrics[$m] - $b[.].metrics[$m]) * $dir]
	| "\($m) \(map(select(. > 0)) | length) \(map(select(. < 0)) | length)"' >"$dir/wins.txt"

echo
printf '%-14s %6s %6s %9s %9s  %s\n' metric won lost gain "spread a" verdict
awk -v w="$workload" -v n="$pairs" '
	FNR == NR { won[$1] = $2; lost[$1] = $3; next }
	# A -compare row: workload metric a b worse bound spread-a spread-b verdict.
	$1 == w && ($2 in won) {
		worse = $5 + 0; sa = $7 + 0  # "+10.5%" -> 10.5
		verdict = "-"
		if (won[$2] >= 0.9 * n && -worse > sa) verdict = "better"
		if (lost[$2] >= 0.9 * n && worse > sa) verdict = "worse"
		printf "%-14s %6s %6s %8.1f%% %8.1f%%  %s\n", $2, won[$2] "/" n, lost[$2] "/" n, -worse, sa, verdict
	}' "$dir/wins.txt" "$dir/compare.txt"
echo "a/base = $rev, b/head = working tree, $workload, seeds $seed0..$((seed0 + pairs - 1)), ${seconds}s windows; runs in $dir/{base,head}.json"
exit $regressed
