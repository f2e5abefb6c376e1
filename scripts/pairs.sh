#!/bin/sh
# pairs.sh — the paired-run protocol for a change that claims a benchmark
# gain (choosing-metrics §8): build ./bench from a clean checkout of a parent
# ref and from a clean checkout of HEAD, run them as alternating pairs on one
# workload, and say per end-to-end metric whether the change won.
#
# Usage: ./scripts/pairs.sh <parent-ref> <workload> [pairs=10] [first-seed=101]
#
# Both sides of a pair get the same seed and every pair a fresh one
# (first-seed, first-seed+1, …); which side runs first alternates. Each
# binary runs from its own checkout, so it reads its own BENCHMARK.json, with
# `-workload W -trace 0 -seed S` and the run length that file fixes. HEAD
# means the committed files: commit before you measure. The checkouts are
# `git archive` extracts in a temporary directory (nothing is left in .git or
# in the working tree); the benchmark is read only through its command line.
#
# Per metric it prints each side's median [q1, q3] (quartiles the way
# Python's statistics.quantiles(n=4) and bench -repeat compute them, the
# arithmetic the acceptance rule is stated in), the pairs the change won
# (ties count for neither), whether the medians differ by more than the
# distance between the parent's quartiles, and whether the change's median is
# worse than the parent's by more than the bound BENCHMARK.json fixes. A gain
# is claimed only when the change wins at least nine tenths of the pairs and
# the medians are that far apart; a regression is a median beyond the bound.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	echo "usage: $0 <parent-ref> <workload> [pairs=10] [first-seed=101]" >&2
	exit 2
fi
ref=$1
workload=$2
pairs=${3:-10}
seed=${4:-101}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM

checkout() { # checkout <name> <ref>: extract and build
	mkdir -p "$tmp/$1"
	git archive "$2" | tar -x -C "$tmp/$1"
	(cd "$tmp/$1" && go build -o "$tmp/$1.bench" ./bench)
}
echo "building parent ($ref) and change (HEAD: $(git rev-parse --short HEAD))" >&2
checkout parent "$ref"
checkout change HEAD

# run <side> <seed>: append "side metric value" lines, and the side's
# attempted/failed counts, to $tmp/values.
run() {
	out=$(cd "$tmp/$1" && "$tmp/$1.bench" -workload "$workload" -trace 0 -seed "$2" -out "$tmp/out.$1" 2>&1) || {
		echo "$out" | tail -20 >&2
		echo "pairs.sh: $1 run failed (seed $2)" >&2
		exit 1
	}
	line=$(echo "$out" | grep '^{"correct"' | tail -1)
	echo "$line" | grep -o '"[A-Za-z0-9_]*":{"value":[^,}]*' |
		sed 's/^"\([^"]*\)":{"value":\(.*\)$/'"$1"' \1 \2/' >>"$tmp/values"
	echo "$line" | sed 's/.*"attempted":\([0-9]*\).*/'"$1"' _attempted \1/' >>"$tmp/values"
	echo "$line" | sed 's/.*"failed":\([0-9]*\).*/'"$1"' _failed \1/' >>"$tmp/values"
}

i=0
while [ "$i" -lt "$pairs" ]; do
	s=$((seed + i))
	if [ $((i % 2)) -eq 0 ]; then first=parent second=change; else first=change second=parent; fi
	echo "pair $((i + 1))/$pairs: seed $s, $first first" >&2
	run "$first" "$s"
	run "$second" "$s"
	i=$((i + 1))
done

# Per end-to-end metric the direction of "better" and the regression bound,
# from the change's spec (one key per line; "bound" closes an entry).
awk '
/"end_to_end"/ { inside = 1 }
inside && /"name"/ { gsub(/[",]/, ""); name = $2 }
inside && /"better"/ { gsub(/[",]/, ""); better = $2 }
inside && /"bound"/ { gsub(/[",]/, ""); print name, better, $2 }
inside && /\]/ { inside = 0 }
' "$tmp/change/BENCHMARK.json" >"$tmp/better"

echo
echo "workload $workload, $pairs pairs, seeds $seed..$((seed + pairs - 1)), parent $ref, change $(git rev-parse --short HEAD)"
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
		beyond = (worse && pm && diff / pm > bound[m]) ? "YES" : "no"
		printf "%-14s %-34s %-34s %-6s %s (%+.1f%%, IQR %.4g); %s (bound %g%%)\n", m,
			sprintf("%.6g [%.6g, %.6g]", pm, quartile(p, n, 1), quartile(p, n, 3)),
			sprintf("%.6g [%.6g, %.6g]", cm, quartile(c, n, 1), quartile(c, n, 3)),
			wins "/" n, verdict, pm ? 100 * (cm - pm) / pm : 0, iqr, beyond, 100 * bound[m]
	}
	printf "failed ops: parent %d of %d, change %d of %d\n",
		total["parent", "_failed"], total["parent", "_attempted"], total["change", "_failed"], total["change", "_attempted"]
}' "$tmp/better" "$tmp/values"
