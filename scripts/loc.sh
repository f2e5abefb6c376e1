#!/bin/sh
# loc.sh — non-test lines of Go per package: the size figure ROADMAP item 3
# asks every PR to report in CHANGES.md.
#
# Usage: ./scripts/loc.sh            table of the working tree
#        ./scripts/loc.sh <git-ref>  before (the ref) / after (the working
#                                    tree) / delta, per package and in total
#
# Below the total it prints the subtotal of internal/obs/* + internal/admin +
# cmd/*: the three trees ROADMAP item 5's scorecard is stated in.
#
# A line is a line: plain `wc -l` over every .go file that is not a
# _test.go, blanks and comments included, so deleting comments shows up as
# what it is. Files git ignores are not counted. Code moved into a _test.go
# file leaves the count without having been removed; say so where you
# quote the numbers.
set -eu
cd "$(dirname "$0")/.."

# count ROOT: .go paths relative to ROOT on stdin -> "package lines", sorted.
count() {
	while IFS= read -r f; do
		case "$f" in *_test.go) continue ;; esac
		[ -f "$1/$f" ] || continue
		echo "$(dirname "$f") $(wc -l <"$1/$f")"
	done | awk '{ n[$1] += $2 } END { for (p in n) print p, n[p] }' | sort
}

after=$(mktemp)
trap 'rm -rf "$after" ${before:+"$before" "$tree"}' EXIT INT TERM
git ls-files -co --exclude-standard -- '*.go' | count . >"$after"

if [ $# -eq 0 ]; then
	awk '{ printf "%-36s %7d\n", $1, $2; t += $2 }
	$1 ~ /^(internal\/obs|internal\/admin$|cmd\/)/ { o += $2 }
	END { printf "%-36s %7d\n%-36s %7d\n", "total", t, "obs + admin + cmd", o }' "$after"
	exit 0
fi

before=$(mktemp)
tree=$(mktemp -d)
git archive "$1" | tar -x -C "$tree"
(cd "$tree" && find . -name '*.go' -type f | sed 's|^\./||') | count "$tree" >"$before"

printf '%-36s %7s %7s %7s\n' package "$1" now delta
awk -v before="$before" '
function three(p) { return p ~ /^(internal\/obs|internal\/admin$|cmd\/)/ }
FILENAME == before { b[$1] = $2; pkgs[$1]; tb += $2; if (three($1)) ob += $2; next }
{ a[$1] = $2; pkgs[$1]; ta += $2; if (three($1)) oa += $2 }
END {
	for (p in pkgs) printf "%-36s %7d %7d %+7d\n", p, b[p], a[p], a[p] - b[p] | "sort"
	close("sort")
	printf "%-36s %7d %7d %+7d\n", "total", tb, ta, ta - tb
	printf "%-36s %7d %7d %+7d\n", "obs + admin + cmd", ob, oa, oa - ob
}' "$before" "$after"
