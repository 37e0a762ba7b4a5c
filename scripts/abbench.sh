#!/usr/bin/env bash
# A/B Go benchmarks: the working tree against a git revision.
#
#   scripts/abbench.sh REV PKG BENCH ROUNDS
#   (or: make abbench REV=HEAD~1 PKG=./internal/engine BENCH=BenchmarkPathScanWarm)
#
# Builds the test binary of PKG twice, once from REV (exported with
# `git archive` under .bench_build/ab/) and once from the working tree. Then
# it runs the two alternately for ROUNDS rounds, REV first in odd rounds, so
# a machine that drifts over minutes weighs on both sides alike. It prints
# ns/op, B/op and allocs/op per round and the medians per side.
set -euo pipefail
if [ $# -ne 4 ]; then
	echo "usage: $0 REV PKG BENCH ROUNDS" >&2
	exit 2
fi
rev=$1 pkg=$2 bench=$3 rounds=$4
root="$(git rev-parse --show-toplevel)"
dir="$root/.bench_build/ab"
rm -rf "$dir"
mkdir -p "$dir/base"
git -C "$root" archive "$rev" | tar -x -C "$dir/base"
(cd "$dir/base" && go test -c -o "$dir/base.test" "$pkg")
(cd "$root" && go test -c -o "$dir/head.test" "$pkg")

# One benchmark run of side $1 in round $2, as lines of
# "round side benchmark ns/op B/op allocs/op". A test binary runs in its
# package directory, as `go test` would run it.
run() {
	local src="$root"
	[ "$1" = base ] && src="$dir/base"
	(cd "$src/$pkg" && "$dir/$1.test" -test.run '^$' -test.bench "$bench" \
		-test.benchtime 1s -test.benchmem -test.timeout 30m) |
		awk -v side="$1" -v round="$2" '/^Benchmark/ {
			ns = b = allocs = "-"
			for (i = 3; i <= NF; i++) {
				if ($i == "ns/op") ns = $(i-1)
				if ($i == "B/op") b = $(i-1)
				if ($i == "allocs/op") allocs = $(i-1)
			}
			print round, side, $1, ns, b, allocs
		}'
}

: >"$dir/rounds.txt"
for ((r = 1; r <= rounds; r++)); do
	order="base head"
	((r % 2 == 0)) && order="head base"
	for side in $order; do
		run "$side" "$r" | tee -a "$dir/rounds.txt"
	done
done

# median prints the median of the numbers on stdin.
median() {
	sort -g | awk '{v[NR] = $1} END {
		if (NR == 0) { print "-"; exit }
		if (NR % 2) m = v[(NR + 1) / 2]; else m = (v[NR / 2] + v[NR / 2 + 1]) / 2
		printf "%.10g\n", m
	}'
}

echo
printf '%-40s %-5s %14s %12s %10s\n' benchmark side "ns/op" "B/op" "allocs/op"
for name in $(awk '{print $3}' "$dir/rounds.txt" | sort -u); do
	for side in base head; do
		sel() { awk -v n="$name" -v s="$side" -v c="$1" '$3 == n && $2 == s {print $c}' "$dir/rounds.txt" | median; }
		printf '%-40s %-5s %14s %12s %10s\n' "$name" "$side" "$(sel 4)" "$(sel 5)" "$(sel 6)"
	done
done
echo "base = $rev, head = working tree; per-round lines in $dir/rounds.txt"
