#!/bin/sh
# bench.sh — run the perf-ledger benchmarks and record the results as
# BENCH_<date>.txt (raw `go test -bench` output, benchstat-compatible)
# plus BENCH_<date>.json (parsed, for dashboards and benchcmp.sh). If a
# same-day ledger already exists, a .2/.3/... suffix is added instead of
# overwriting it.
#
# Usage:
#   scripts/bench.sh                # ledger benchmarks, single run each
#   scripts/bench.sh -count 5      # 5 runs each, JSON records medians
#   COUNT=5 scripts/bench.sh       # same, via environment
#   BENCHTIME=20x scripts/bench.sh # longer runs for stabler numbers
#   PATTERN='Scanner' scripts/bench.sh
#
# The ledger set is the throughput benchmarks (generate, world, and the
# batched stream pipeline) plus the historical per-UE-hour and scanner
# benches, the shard/merge fit, the bounded-memory (sketched) fit
# with its peak-heap metric, PartialFit.Build alone (internal/core's
# BenchmarkPartialFitBuild: the layer bench/ reports as
# core.fit.build_s), trace assembly alone (internal/trace's
# BenchmarkAssembleKeys: the layer bench/ reports as
# trace.radix.ns_per_event), windowed assembly alone (internal/trace's
# BenchmarkWindowAssemble: what orders the streaming sources), and the
# cplint analysis cost
# (BenchmarkLintAnalyze: per analyzer, whole suite, real module), so
# successive BENCH_* files track the same quantities across PRs. With -count N the .txt keeps every run
# (benchstat can consume it directly) and the .json stores the median of
# each metric, which is the number the ledger compares. Compare two
# ledgers with scripts/benchcmp.sh.
set -eu

cd "$(dirname "$0")/.."

PATTERN="${PATTERN:-GenerateThroughput|WorldThroughput|StreamThroughput|GeneratorPerUEHour|Scanner|FitSharded|FitSketched|PartialFitBuild|AssembleKeys|WindowAssemble}"
BENCHTIME="${BENCHTIME:-10x}"
COUNT="${COUNT:-1}"
while [ $# -gt 0 ]; do
	case "$1" in
	-count)
		[ $# -ge 2 ] || { echo "bench.sh: -count needs a value" >&2; exit 2; }
		COUNT="$2"
		shift 2
		;;
	*)
		echo "usage: scripts/bench.sh [-count N]" >&2
		exit 2
		;;
	esac
done
case "$COUNT" in
'' | *[!0-9]*)
	echo "bench.sh: -count must be a positive integer, got '$COUNT'" >&2
	exit 2
	;;
esac

DATE="$(date +%Y-%m-%d)"
STEM="BENCH_${DATE}"
n=1
TXT="${STEM}.txt"
JSON="${STEM}.json"
while [ -e "$TXT" ] || [ -e "$JSON" ]; do
	n=$((n + 1))
	TXT="${STEM}.${n}.txt"
	JSON="${STEM}.${n}.json"
done

# Whole-pipeline benchmarks: one op is a full Generate, so a fixed
# iteration count keeps run time bounded. The per-step microbenchmark
# needs millions of iterations to mean anything, so it gets a
# time-based budget instead.
go test -run '^$' -bench "$PATTERN" -benchtime "$BENCHTIME" -count "$COUNT" -benchmem . ./internal/core/ ./internal/trace/ | tee "$TXT"
go test -run '^$' -bench 'EngineStep' -benchtime "${STEPTIME:-2s}" -count "$COUNT" -benchmem \
	./internal/core/ | tee -a "$TXT"

# Static-analysis cost: per-analyzer and whole-suite cplint runs over
# the fixture tree plus the suite over the real module, so the
# call-graph substrate's cost rides the same ledger as generation
# throughput. Type-checking happens in setup; the measured quantity is
# analysis alone.
go test -run '^$' -bench 'LintAnalyze' -benchtime "${LINTTIME:-3x}" -count "$COUNT" -benchmem \
	./internal/lint/ | tee -a "$TXT"

# Parse the standard benchmark lines into JSON. Metric pairs start at
# field 3 (field 1 name, 2 iterations, then value/unit pairs). With
# -count N each benchmark emits N lines; the JSON records the median of
# every metric across them (and of the iteration counts).
awk -v date="$DATE" -v benchtime="$BENCHTIME" -v count="$COUNT" '
function median(name, unit,    i, k, m, tmp, t) {
	k = runs[name]
	for (i = 1; i <= k; i++)
		tmp[i] = val[name SUBSEP unit SUBSEP i] + 0
	# insertion sort: k is the run count, tiny
	for (i = 2; i <= k; i++) {
		t = tmp[i]
		for (m = i - 1; m >= 1 && tmp[m] > t; m--)
			tmp[m + 1] = tmp[m]
		tmp[m + 1] = t
	}
	if (k % 2)
		return tmp[(k + 1) / 2]
	return (tmp[k / 2] + tmp[k / 2 + 1]) / 2
}
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
	name = $1
	if (!(name in runs)) {
		order[++nnames] = name
		nunits[name] = 0
	}
	runs[name]++
	r = runs[name]
	val[name SUBSEP "iters" SUBSEP r] = $2
	for (i = 3; i + 1 <= NF; i += 2) {
		u = $(i + 1)
		if (!(name SUBSEP u in seenunit)) {
			seenunit[name SUBSEP u] = ++nunits[name]
			unit[name SUBSEP nunits[name]] = u
		}
		val[name SUBSEP u SUBSEP r] = $i
	}
}
END {
	for (j = 1; j <= nnames; j++) {
		name = order[j]
		m = ""
		for (i = 1; i <= nunits[name]; i++) {
			u = unit[name SUBSEP i]
			if (m != "") m = m ", "
			m = m "\"" u "\": " median(name, u)
		}
		if (out != "") out = out ",\n"
		out = out "    {\"name\": \"" name "\", \"iters\": " median(name, "iters") \
			", \"samples\": " runs[name] ", \"metrics\": {" m "}}"
	}
	printf "{\n"
	printf "  \"date\": \"%s\",\n", date
	printf "  \"goos\": \"%s\",\n", goos
	printf "  \"goarch\": \"%s\",\n", goarch
	printf "  \"cpu\": \"%s\",\n", cpu
	printf "  \"cpus\": %d,\n", cpus
	printf "  \"benchtime\": \"%s\",\n", benchtime
	printf "  \"count\": %d,\n", count
	printf "  \"aggregation\": \"median over count runs per benchmark\",\n"
	printf "  \"caveat\": \"measured on a shared %d-CPU container; absolute numbers are noisy (±20%% across runs observed), compare only medians of repeated runs on the same host\",\n", cpus
	printf "  \"benchmarks\": [\n%s\n  ]\n}\n", out
}' cpus="$(nproc)" "$TXT" > "$JSON"

echo "wrote $TXT and $JSON" >&2
