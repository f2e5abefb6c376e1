#!/bin/sh
# bench.sh — run the root benchmark suite once and record the numbers as
# the repo's benchmark trajectory file.
#
# Usage: ./scripts/bench.sh [output.json]    (default: BENCH_10.json)
#
# Runs `go test -bench . -benchtime=1x -benchmem` over the repo root and
# ./internal/gridftp (home of BenchmarkE19DataPath, whose legacy block
# loops live in a _test.go file there) and writes a JSON object mapping
# each benchmark (including sub-benchmarks) to its metrics:
#
#   {
#     "BenchmarkE2ParallelStreams/gridftp-p4-8": {
#       "ns_per_op": 123456789,
#       "mb_per_s": 1.57,
#       "bytes_per_op": 4096,
#       "allocs_per_op": 42
#     },
#     ...
#   }
#
# Benchmark-specific metrics (ms/file, bytes-moved/file-size, ...) appear
# under keys with non-alphanumerics mapped to "_". The format is
# documented in README.md ("Benchmark trajectory").
#
# Regression gate: the E2 p16 transfer is the allocation-budget canary for
# the MODE E fast path. If its allocs/op exceeds the recorded baseline by
# more than 20%, the run fails — a pooled buffer leaking back to per-block
# allocation shows up here before it shows up as GC pressure in the field.
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_10.json}"
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT INT TERM

# Baseline for the allocs/op gate (E2/gridftp-p16 after the fast-path PR).
ALLOC_GATE_BENCH="BenchmarkE2ParallelStreams/gridftp-p16"
ALLOC_GATE_BASELINE=30000

go test -run '^$' -bench . -benchtime=1x -benchmem . ./internal/gridftp | tee "$tmp"

awk '
/^Benchmark/ {
	name = $1
	line = ""
	for (i = 3; i + 1 <= NF; i += 2) {
		unit = $(i + 1)
		if (unit == "ns/op")          key = "ns_per_op"
		else if (unit == "MB/s")      key = "mb_per_s"
		else if (unit == "B/op")      key = "bytes_per_op"
		else if (unit == "allocs/op") key = "allocs_per_op"
		else { key = unit; gsub(/[^A-Za-z0-9]/, "_", key) }
		if (line != "") line = line ", "
		line = line "\"" key "\": " $i
	}
	if (count++ > 0) printf ",\n"
	printf "  \"%s\": {%s}", name, line
}
END { printf "\n" }
' "$tmp" | { echo "{"; cat; echo "}"; } > "$out"

echo "wrote $out"

awk -v bench="$ALLOC_GATE_BENCH" -v base="$ALLOC_GATE_BASELINE" '
$1 ~ "^" bench {
	for (i = 3; i + 1 <= NF; i += 2) {
		if ($(i + 1) == "allocs/op") allocs = $i
	}
}
END {
	if (allocs == "") {
		print "alloc gate: " bench " not found in run" > "/dev/stderr"
		exit 1
	}
	limit = base * 1.2
	if (allocs + 0 > limit) {
		printf "alloc gate: %s at %d allocs/op exceeds baseline %d by >20%% (limit %d)\n", \
			bench, allocs, base, limit > "/dev/stderr"
		exit 1
	}
	printf "alloc gate: %s at %d allocs/op within budget (baseline %d, limit %d)\n", \
		bench, allocs, base, limit
}
' "$tmp"
