#!/bin/sh
# pairs.sh — the paired-run protocol for a change that claims a benchmark
# gain (choosing-metrics §8): build ./bench from a clean checkout of a parent
# ref and from a clean checkout of HEAD, run them as alternating pairs on
# each workload named, and say per end-to-end metric whether the change won.
#
# Usage: ./scripts/pairs.sh <parent-ref> <workload[,workload...]|all> [pairs=10] [first-seed=101]
#
# Both binaries are built once; the workloads then run in turn, in the order
# given (all: every workload the change's BENCHMARK.json declares, in its
# order), each with its pairs and its own table. Within a workload both
# sides of a pair get the same seed and every pair a fresh one (first-seed,
# first-seed+1, …; each workload runs the same seeds); which side runs first
# alternates. Each binary runs from its own checkout, so it reads its own
# BENCHMARK.json, with `-workload W -trace 0 -seed S` and the run length that
# file fixes. HEAD means the committed files: commit before you measure. The
# checkouts are `git archive` extracts in a temporary directory (nothing is
# left in .git or in the working tree); the benchmark is read only through
# its command line.
#
# Per metric it prints each side's median [q1, q3] (quartiles the way
# Python's statistics.quantiles(n=4) and bench -repeat compute them, the
# arithmetic the acceptance rule is stated in), the pairs the change won
# (ties count for neither), whether the medians differ by more than the
# distance between the parent's quartiles, and whether the change's median is
# worse than the parent's by more than the bound BENCHMARK.json fixes. A gain
# is claimed only when the change wins at least nine tenths of the pairs and
# the medians are that far apart; a regression is a median beyond the bound.
# Below them it prints two per-layer readings from each run's text output,
# in the same columns, reported and not gated: process.cpu_ms_per_op, the
# CPU the process spent per operation, a steadier reading of a CPU-bound
# workload than its wall time; and netsim.max_queue_KB, the most bytes the
# simulated links held queued at once.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	echo "usage: $0 <parent-ref> <workload[,workload...]|all> [pairs=10] [first-seed=101]" >&2
	exit 2
fi
ref=$1
workloads=$2
pairs=${3:-10}
seed=${4:-101}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

checkout() { # checkout <name> <ref>: extract and build
	mkdir -p "$tmp/$1"
	git archive "$2" | tar -x -C "$tmp/$1"
	(cd "$tmp/$1" && go build -o "$tmp/$1.bench" ./bench)
}
# The hash is taken once, before the change is extracted: a commit that lands
# while the pairs run must not relabel what was built.
head=$(git rev-parse --short HEAD)
echo "building parent ($ref) and change (HEAD: $head)" >&2
checkout parent "$ref"
checkout change "$head"

if [ "$workloads" = all ]; then
	workloads=$(awk '
	/"workloads"/ { inside = 1; next }
	inside && /^ *\]/ { inside = 0 }
	inside && /"name":/ { gsub(/[",]/, ""); print $2 }
	' "$tmp/change/BENCHMARK.json" | paste -sd, -)
fi

# Per end-to-end metric the direction of "better" and the regression bound,
# from the change's spec (one key per line; "bound" closes an entry), then the
# two per-layer readings, ungated.
awk '
/"end_to_end"/ { inside = 1 }
inside && /"name"/ { gsub(/[",]/, ""); name = $2 }
inside && /"better"/ { gsub(/[",]/, ""); better = $2 }
inside && /"bound"/ { gsub(/[",]/, ""); print name, better, $2 }
inside && /\]/ { inside = 0 }
' "$tmp/change/BENCHMARK.json" >"$tmp/better"
echo "process.cpu_ms_per_op lower -" >>"$tmp/better"
echo "netsim.max_queue_KB lower -" >>"$tmp/better"

# run <workload> <side> <seed>: append "side metric value" lines, and the
# side's attempted/failed counts, to $tmp/values.<workload>.
run() {
	out=$(cd "$tmp/$2" && "$tmp/$2.bench" -workload "$1" -trace 0 -seed "$3" -out "$tmp/out.$2" 2>&1) || {
		echo "$out" | tail -20 >&2
		echo "pairs.sh: $2 run of $1 failed (seed $3)" >&2
		exit 1
	}
	values=$tmp/values.$1
	line=$(echo "$out" | grep '^{"correct"' | tail -1)
	echo "$line" | grep -o '"[A-Za-z0-9_]*":{"value":[^,}]*' |
		sed 's/^"\([^"]*\)":{"value":\(.*\)$/'"$2"' \1 \2/' >>"$values"
	echo "$line" | sed 's/.*"attempted":\([0-9]*\).*/'"$2"' _attempted \1/' >>"$values"
	echo "$line" | sed 's/.*"failed":\([0-9]*\).*/'"$2"' _failed \1/' >>"$values"
	echo "$out" | awk -v side="$2" '$1 == "process.cpu_ms_per_op" || $1 == "netsim.max_queue_KB" { print side, $1, $2 }' >>"$values"
}

# summary <workload>: the table of one workload's pairs.
summary() {
	echo
	echo "workload $1, $pairs pairs, seeds $seed..$((seed + pairs - 1)), parent $ref, change $head"
	awk -v betterfile="$tmp/better" '
function median(a, n) { return n % 2 ? a[(n - 1) / 2] : (a[n / 2 - 1] + a[n / 2]) / 2 }
function quartile(a, n, i,    pos, j) { # i-th of the 4 cut points, exclusive method
	if (n < 2) return a[0]
	pos = i * (n + 1) / 4; j = int(pos)
	if (j < 1) j = 1
	if (j > n - 1) j = n - 1
	return a[j - 1] + (a[j] - a[j - 1]) * (pos - j)
}
function sorted(side, m, out,    i, j, n, t) {
	n = count[side, m]
	for (i = 0; i < n; i++) out[i] = val[side, m, i]
	for (i = 1; i < n; i++) { t = out[i]; for (j = i - 1; j >= 0 && out[j] > t; j--) out[j + 1] = out[j]; out[j + 1] = t }
	return n
}
FILENAME == betterfile { better[$1] = $2; bound[$1] = $3; order[nm++] = $1; next }
$2 ~ /^_/ { total[$1, $2] += $3; next }
{ val[$1, $2, count[$1, $2]++] = $3 }
END {
	printf "%-14s %-34s %-34s %-6s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "medians apart by more than the parent IQR; worse than the bound"
	for (k = 0; k < nm; k++) {
		m = order[k]
		n = sorted("parent", m, p); sorted("change", m, c)
		if (n == 0) continue
		wins = 0
		for (i = 0; i < n; i++) {
			a = val["parent", m, i]; b = val["change", m, i]
			if (a == b) continue
			if ((better[m] == "lower") == (b < a)) wins++
		}
		pm = median(p, n); cm = median(c, n)
		iqr = quartile(p, n, 3) - quartile(p, n, 1)
		diff = cm - pm; if (diff < 0) diff = -diff
		worse = ((better[m] == "lower") == (cm > pm)) && cm != pm
		verdict = (diff > iqr) ? (worse ? "yes, the change being worse" : "yes") : "no"
		if (bound[m] == "-") gate = "reported, not gated"
		else gate = sprintf("%s (bound %g%%)", (worse && pm && diff / pm > bound[m]) ? "YES" : "no", 100 * bound[m])
		printf "%-14s %-34s %-34s %-6s %s (%+.1f%%, IQR %.4g); %s\n", m,
			sprintf("%.6g [%.6g, %.6g]", pm, quartile(p, n, 1), quartile(p, n, 3)),
			sprintf("%.6g [%.6g, %.6g]", cm, quartile(c, n, 1), quartile(c, n, 3)),
			wins "/" n, verdict, pm ? 100 * (cm - pm) / pm : 0, iqr, gate
	}
	printf "failed ops: parent %d of %d, change %d of %d\n",
		total["parent", "_failed"], total["parent", "_attempted"], total["change", "_failed"], total["change", "_attempted"]
}' "$tmp/better" "$tmp/values.$1"
}

# Each workload's table follows its pairs, so a long run's finished
# workloads can be read while the next runs.
for w in $(echo "$workloads" | tr ',' ' '); do
	i=0
	while [ "$i" -lt "$pairs" ]; do
		s=$((seed + i))
		if [ $((i % 2)) -eq 0 ]; then first=parent second=change; else first=change second=parent; fi
		echo "$w pair $((i + 1))/$pairs: seed $s, $first first" >&2
		run "$w" "$first" "$s"
		run "$w" "$second" "$s"
		i=$((i + 1))
	done
	summary "$w"
done
