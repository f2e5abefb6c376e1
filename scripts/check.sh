#!/bin/sh
# check.sh — the pre-commit gate: gofmt over the whole tree (bench/ and the
# root package included), the client's one-place-for-reply-reads guard
# (internal/gridftp/settle.go), the server's one-place-for-reply-writes guard
# (session.reply/replies), the binaries' no-plane-imports guard
# (internal/admin/boot.go), the three deleted planes' stay-deleted guard and
# the observability tree's size ratchet, the recorder's one-input guard (no
# series push, no push feed from the admin plane), the one-writer guard for
# /metrics (no trace exemplars on its text, no in-tree parser of it, no
# benchreport mode that re-renders it or the stream table), the one-place-per-scenario guard
# (internal/world) with examples/ staying deleted, the one-experiment-runner
# guard (benchreport; no scripts/bench.*, no root *_test.go), build, vet,
# the full test suite (the allocation canary TestFreshParallelGetAllocBudget
# included), the full test suite again under the race detector (about two
# minutes on two cores), and ten seconds each of the record-boundary fuzzer
# and the delegation-bundle fuzzer. It
# ends by printing the non-test lines of Go per package (scripts/loc.sh) —
# the figure CHANGES.md reports, not a gate.
#
# The plain pass runs with -count=1 -shuffle=on: a cached "ok" is how a test
# that failed most fresh runs once sat on main unnoticed, and a test that
# passes only after the one declared above it is the same kind of luck. When
# a shuffled package fails, go test prints "-test.shuffle <seed>" above the
# failure; re-run that package with -shuffle=<seed> to get the same order.
#
# Usage: ./scripts/check.sh [extra go-test args]
set -eu
cd "$(dirname "$0")/.."

echo "==> gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "==> control-channel reads stay in internal/gridftp/settle.go"
# A reply read anywhere else can take an owed 200 for its own answer.
if grep -nE 'ctrl\.(Expect|ReadFinalReply|ReadReply)\(' internal/gridftp/*.go | grep -vE '^internal/gridftp/(settle|[a-z_]*_test)\.go:'; then
	echo "check.sh: read the control channel through Client.expect or Client.finalReply" >&2
	exit 1
fi
# The connection under the line reader is handed out twice, to the two TLS
# handshakes of the login (Dial, handleAuth). Any other holder of it reads
# replies or commands the line reader never sees.
sites=$(grep -nE 'ctrl\.RW\(\)' internal/gridftp/*.go | grep -v '_test\.go:' | cut -d: -f1 | tr '\n' ' ')
if [ "$sites" != "internal/gridftp/client.go internal/gridftp/server.go " ]; then
	echo "check.sh: ctrl.RW() is for the login's two handshakes only (Dial in client.go, handleAuth in server.go); found in: $sites" >&2
	exit 1
fi

echo "==> control-channel replies are written in one place, one write per flight"
# What the network charges for a write it charges per write, so the server
# frames a flight of replies and writes it once: session.reply and its batch
# sibling session.replies (server.go) are the only callers of the reply
# writers, and ftp.Conn keeps no write buffer for anyone to leave bytes in.
if grep -nE '\.(WriteReply|WriteReplies)\(' internal/gridftp/*.go cmd/*/*.go internal/transfer/*.go internal/gcmu/*.go | grep -vE '^internal/gridftp/(server|[a-z_]*_test)\.go:'; then
	echo "check.sh: write replies through session.reply or session.replies (internal/gridftp/server.go)" >&2
	exit 1
fi
if grep -nE 'bufio\.(NewWriter|Writer)' internal/ftp/ftp.go; then
	echo "check.sh: ftp.Conn hands the transport one Write per flight and buffers nothing between calls" >&2
	exit 1
fi

echo "==> the binaries get their observability from the bootstrap (internal/admin/boot.go)"
# A main that imports a plane is a main assembling planes by hand again;
# benchreport reads planes for a living and is exempt.
if grep -nE '"gridftp.dev/instant/internal/obs/(streamstats|tsdb|collector)"' cmd/*/*.go | grep -v '^cmd/benchreport/'; then
	echo "check.sh: cmd/* takes Obs and Streams from admin.Daemon; the planes are booted in internal/admin" >&2
	exit 1
fi

echo "==> the federation head, the continuous profiler and the tenant plane stay deleted; internal/obs/* stays smaller than the engine"
# None of the three had a reader outside itself (CHANGES.md): profiles are
# the toolchain's (/debug/pprof/, go tool pprof -diff_base), every measured
# world is one process, and a task reports its own owner (transfer.Task.DN).
# The config fields that fed these planes had their types from them, so this
# also keeps those fields from coming back.
if git grep -nE 'internal/obs/(fleet|profile|tenant)' -- '*.go' '*.sh' '*.yml'; then
	echo "check.sh: the fleet, profile and tenant planes under internal/obs are gone; nothing names them" >&2
	exit 1
fi
# ROADMAP item 6's done-condition: the tree that observes the engine is
# smaller than the engine (non-test lines, scripts/loc.sh).
./scripts/loc.sh | awk '
	$1 ~ /^internal\/obs/ { obs += $2 }
	$1 == "internal/gridftp" { engine = $2 }
	END {
		if (obs >= engine) {
			printf "check.sh: internal/obs* is %d non-test lines, internal/gridftp %d: the observability tree must stay below the engine\n", obs, engine > "/dev/stderr"
			exit 1
		}
		printf "internal/obs* %d < internal/gridftp %d\n", obs, engine
	}'

echo "==> the registry sampler is the recorder's one input; the admin plane pushes nothing"
# One input to the recorder, and no push feed without a reader (CHANGES.md).
if git grep -nE 'SeriesSink|RetireSeries|\.Tap\(' -- '*.go' ':!*_test.go' ||
	grep -nE '"/debug/(stream|series)"' internal/admin/*.go | grep -v '_test\.go:'; then
	echo "check.sh: the recorder samples the registry and nothing pushes series into it or events out of the admin plane" >&2
	exit 1
fi

echo "==> /metrics is plain text format with one writer and no in-tree reader"
# Exemplars are OpenMetrics, not text format 0.0.4; the exposition is read as
# it is, so nothing parses it back or renders it again (CHANGES.md). The
# bracketed letters keep this file from matching its own pattern.
if git grep -nE 'Observe[E]xemplar|Parse[T]ext|metrics[-]snapshot|stream[-]health' -- '*.go' '*.sh' '*.yml'; then
	echo "check.sh: /metrics is written by expfmt.WriteText alone; read it (or /debug/streams?format=text) as it is" >&2
	exit 1
fi

echo "==> every scenario is built in internal/world; examples/ stays deleted"
# A site, an endpoint's PAM stack or the hosted triangle built anywhere else
# is a second builder of the same world. bench/ keeps its own until a
# benchmark change widens its surface by internal/world; cmd/gcmu's install
# keeps its literal gcmu.Install, the paper's §IV.D walk-through.
if [ -e examples ]; then
	echo "check.sh: examples/ is gone; README's quick start names the command that shows each example" >&2
	exit 1
fi
if find . -name '*.go' ! -name '*_test.go' ! -path './internal/world/*' ! -path './bench/*' -exec \
	grep -nE '(gcmu\.Install|transfer\.NewService|pam\.NewLDAPDirectory)\(' {} + |
	grep -vE '^\./cmd/gcmu/main\.go:[0-9]+:.*gcmu\.Install\(' ||
	[ "$(grep -c 'gcmu\.Install(' cmd/gcmu/main.go)" != 1 ] ||
	grep -n 'gridftp\.NewServer(' internal/experiments/*.go; then
	echo "check.sh: build sites, endpoints and the hosted triangle with internal/world (cmd/gcmu's install keeps one gcmu.Install)" >&2
	exit 1
fi

echo "==> benchreport runs the experiments; the 1x bench script and root tests stay deleted"
# One runner per experiment: benchreport -exp <id>, with each experiment's test in internal/experiments.
for f in scripts/bench.* ./*_test.go; do
	if [ -e "$f" ]; then
		echo "check.sh: $f is back; scripts/bench.* and the root *_test.go are gone, run an experiment with benchreport -exp <id>" >&2
		exit 1
	fi
done

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test -count=1 -shuffle=on ./..."
go test -count=1 -shuffle=on "$@" ./...

echo "==> go test -race ./..."
go test -race "$@" ./...

echo "==> go test -fuzz FuzzRecordConn -fuzztime 10s ./internal/gridftp"
# recordConn parses lengths a peer sends before it has authenticated, on every
# data port; the committed corpus is a handful of segmentations, this is more.
go test -run '^$' -fuzz FuzzRecordConn -fuzztime 10s ./internal/gridftp

echo "==> go test -fuzz FuzzDelegationBundle -fuzztime 10s ./internal/gridftp"
# DELG's parameter becomes the credential the server presents on its data
# channels; whatever it holds, nothing unchecked may be installed.
go test -run '^$' -fuzz FuzzDelegationBundle -fuzztime 10s ./internal/gridftp

echo "==> non-test lines per package (informational; ./scripts/loc.sh <ref> for a delta)"
./scripts/loc.sh

echo "OK"
