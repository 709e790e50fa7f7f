#!/usr/bin/env bash
# Paired micro-benchmark comparison of the working tree against a base
# revision, on the same host. Run from the root of a checkout:
#
#   [CPUS=1,2] bash scripts/bench-pair.sh <base-rev> <bench-regex> [pairs]
#   make bench-pair REV=<base-rev> BENCH=<bench-regex> N=10 [CPUS=1,2]
#
# It exports <base-rev> with git archive into a temporary directory, builds
# the root package's test binary (go test -c) in both trees, and runs
# `pairs` pairs of -test.bench 'BenchmarkMicro/<bench-regex>' in ABBA order
# (base first in even pairs, change first in odd ones), so that a host
# drifting during the run weighs on both sides alike. <bench-regex> follows
# go test's -bench rules: one regex per '/'-separated level below
# BenchmarkMicro, e.g. '^(CacheSolver|EngineStep)$' or 'MachineStep$/changing'.
#
# For every entry it prints each side's median and quartiles of ns/op, the
# ratio of the medians (change/base; below 1 is faster) and wins k/N: the
# pairs in which the change was faster. Both binaries run at
# -test.benchtime 1s and -test.cpu $CPUS, a comma list of GOMAXPROCS
# values (default 1). Unless CPUS is 1, every entry is measured once per
# count and each row names its count as go test does, e.g.
# InstanceSchedule-2 (and InstanceSchedule-1 for one CPU).
set -euo pipefail

base=${1:?usage: bench-pair.sh <base-rev> <bench-regex> [pairs]}
bench=${2:?usage: bench-pair.sh <base-rev> <bench-regex> [pairs]}
pairs=${3:-10}
cpus=${CPUS:-1}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/base"
git archive "$base" | tar -x -C "$tmp/base"
(cd "$tmp/base" && go test -c -o "$tmp/base.test" .)
go test -c -o "$tmp/change.test" .

# run <side> <dir> <pair>: one benchmark run of a side's binary in its own
# tree, one "side pair name ns/op" line per entry.
run() {
	(cd "$2" && "$tmp/$1.test" -test.run '^$' -test.bench "BenchmarkMicro/$bench" \
		-test.benchmem -test.cpu "$cpus" -test.benchtime 1s -test.timeout 20m) |
		awk -v side="$1" -v pair="$3" -v cpus="$cpus" '$1 ~ /^BenchmarkMicro\// && $4 == "ns/op" {
			name = substr($1, 16)
			if (cpus == "1") sub(/-[0-9]+$/, "", name)
			else if (name !~ /-[0-9]+$/) name = name "-1"
			print side, pair, name, $3 }'
}

for ((i = 0; i < pairs; i++)); do
	if ((i % 2 == 0)); then
		run base "$tmp/base" "$i"
		run change "$PWD" "$i"
	else
		run change "$PWD" "$i"
		run base "$tmp/base" "$i"
	fi
done >"$tmp/runs"

awk -v pairs="$pairs" '
function sortn(a, n,   i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
# q returns the p-quantile of a[1..n] (sorted), interpolating linearly.
function q(a, n, p,   h, l) {
	h = 1 + (n - 1) * p; l = int(h)
	return l >= n ? a[n] : a[l] + (h - l) * (a[l+1] - a[l])
}
function summary(side, name,   n, i, a) {
	n = 0
	for (i = 0; i < pairs; i++)
		if ((side, name, i) in v) a[++n] = v[side, name, i]
	if (n == 0) return "n/a"
	sortn(a, n)
	med[side] = q(a, n, 0.5)
	return sprintf("%.4g [%.4g, %.4g]", med[side], q(a, n, 0.25), q(a, n, 0.75))
}
{ v[$1, $3, $2] = $4; if (!($3 in seen)) { seen[$3] = 1; order[++names] = $3 } }
END {
	printf "%-24s %-36s %-36s %7s %6s\n", "entry (ns/op)", "base median [q1, q3]", "change median [q1, q3]", "ratio", "wins"
	for (k = 1; k <= names; k++) {
		name = order[k]; delete med
		b = summary("base", name); c = summary("change", name)
		wins = 0; both = 0
		for (i = 0; i < pairs; i++)
			if (("base", name, i) in v && ("change", name, i) in v) {
				both++
				if (v["change", name, i] < v["base", name, i]) wins++
			}
		ratio = ("base" in med && "change" in med) ? sprintf("%.3f", med["change"] / med["base"]) : "n/a"
		printf "%-24s %-36s %-36s %7s %3d/%d\n", name, b, c, ratio, wins, both
	}
}' "$tmp/runs"
