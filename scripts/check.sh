#!/bin/sh
# check.sh — the pre-commit gate: gofmt over the whole tree (bench/ and the
# root package included), the client's one-place-for-reply-reads guard
# (internal/gridftp/settle.go) and its no-waited-PORT guard (a third-party
# PORT/SPOR is owed, Client.Port), the server's one-place-for-reply-writes guard
# (session.reply/replies), the binaries' no-plane-imports guard
# (internal/admin/boot.go), the stay-deleted guard for the three deleted
# planes, the two duplicate writers (the event log, the usage metrics sink)
# and the hand-rolled logger (log/slog is the logger) and the observability
# tree's size ratchet, the bounded-HTTP-server guard (every http.Server sets
# ReadHeaderTimeout), the recorder's one-input guard (no
# series push, no push feed from the admin plane), the one-writer guard for
# /metrics (no trace exemplars on its text, no in-tree parser of it, no
# benchreport mode that re-renders it or the stream table), the one-place-per-scenario guard
# (internal/world) with examples/ staying deleted, the one-experiment-runner
# guard (benchreport; no scripts/bench.*, no root *_test.go), the
# unread-exported-names ratchet (every exported name under internal/ has a
# reader outside the tests, or a reason on its kept list; DEFLATE data
# channels and ERET stay deleted), build, vet,
# MyProxy's bounded-line guard (no ReadString('\n') in internal/myproxy),
# the scheduler's stay-deleted guard for the throughput-feedback autotuner
# (no autotuner type, tuner observe call or transfer.stream_budget gauge),
# the full test suite (the allocation canary TestFreshParallelGetAllocBudget
# included), the full test suite again under the race detector (about two
# minutes on two cores), ten seconds each of the six wire fuzzers: the
# record boundary, the delegation bundle, the login's pre-TLS replies, the
# restart ranges of REST and 111 markers, the MODE E receive loop, and
# MyProxy's request; and ten seconds of the POSIX sandbox fuzzer. It
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

echo "==> control-channel reads stay in internal/gridftp/settle.go; a third-party PORT stays owed"
# A reply read anywhere else can take an owed 200 for its own answer.
if grep -nE 'ctrl\.(Expect|ReadFinalReply|ReadReply)\(' internal/gridftp/*.go | grep -vE '^internal/gridftp/(settle|[a-z_]*_test)\.go:'; then
	echo "check.sh: read the control channel through Client.expect or Client.finalReply" >&2
	exit 1
fi
# A third-party PORT or SPOR is owed (Client.Port): its reply comes back with
# the RETR behind it. One waited for puts a round trip back on every wiring.
if grep -nE 'cmdExpect\("(PORT|SPOR)"' internal/gridftp/*.go | grep -v '_test\.go:'; then
	echo "check.sh: leave PORT and SPOR owed (Client.Port); a waited one costs every wiring a round trip" >&2
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

echo "==> the federation head, the continuous profiler, the tenant plane, the event log, the usage metrics sink and the hand-rolled logger stay deleted; internal/obs/* stays smaller than the engine"
# None of the three planes had a reader outside itself (CHANGES.md): profiles
# are the toolchain's (/debug/pprof/, go tool pprof -diff_base), every
# measured world is one process, and a task reports its own owner
# (transfer.Task.DN). The config fields that fed these planes had their types
# from them, so this also keeps those fields from coming back. An occurrence
# is recorded once: a lifecycle or audit record is a logger line (the
# logger's ring is /debug/events), and a completed transfer is counted in the
# registry by the server, not again as usage.* series. The logger is a
# *slog.Logger whose handler is the ring: no levels, field boxing or
# formatter of obs's own.
if git grep -nE 'internal/obs/(fleet|profile|tenant)' -- '*.go' '*.sh' '*.yml' ||
	git grep --untracked -nE 'internal/obs/eventlog|EventLog\(\)|MetricsSink|MultiSink|"usage\.|obs\.Level|ParseLevel|toFields|\*obs\.Logger' -- '*.go' ':!*_test.go'; then
	echo "check.sh: the fleet, profile and tenant planes, the event log, the usage metrics sink and obs's own logger are gone; nothing names them" >&2
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

echo "==> every http.Server bounds the time a client has for its headers"
# A server without ReadHeaderTimeout holds a goroutine for any peer that
# opens a connection and trickles (ROADMAP item 14); the HTTPS services get
# theirs, and their bounded request bodies, from gsi.ServeHTTPS.
if git grep --untracked -l 'http\.Server{' -- '*.go' ':!*_test.go' | xargs -r awk '
	/http\.Server\{/ { open = 1; depth = 0; body = ""; at = FILENAME ":" FNR }
	open {
		body = body $0
		depth += gsub(/\{/, "{") - gsub(/\}/, "}")
		if (depth <= 0) {
			if (body !~ /ReadHeaderTimeout/) { print at; bad = 1 }
			open = 0
		}
	}
	END { exit !bad }'; then
	echo "check.sh: the http.Server literals above set no ReadHeaderTimeout; serve HTTPS through gsi.ServeHTTPS or set one" >&2
	exit 1
fi

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

echo "==> every exported name under internal/ has a reader outside the tests; DEFLATE and ERET stay deleted"
# An exported func, method or type declared in a non-test file under
# internal/ must be named in some non-test Go file other than on its own
# declaration line, comment lines aside: a name only tests read is a deletion
# candidate (ROADMAP's north star). The match is by name, as a word, so a
# common name — Size, Noop, Format — always passes whoever reads it; this
# catches names nothing else says. internal/leakcheck is a test helper and
# exempt. The names kept without a reader are listed in the here-document
# below, one a line with why; an entry that is no longer flagged fails as
# well, so the list only shrinks.
unread=$(git grep --untracked -nE '^(func (\([^)]*\) )?|type )[A-Z][A-Za-z0-9_]*' -- 'internal/*.go' ':!*_test.go' ':!internal/leakcheck/*' |
	sed -E 's/^([^:]*:[0-9]*):(func (\([^)]*\) )?|type )([A-Z][A-Za-z0-9_]*).*/\4 \1/' |
	while read -r name at; do
		git grep --untracked -nw "$name" -- '*.go' ':!*_test.go' | grep -v "^$at:" |
			grep -qvE '^[^:]*:[0-9]*:[[:space:]]*//' || echo "$name $at"
	done)
kept=$(sed -n 's/^\([A-Za-z0-9_]*\) .*/\1/p' <<'EOF'
SetDCAU            §III.B limitation 1, tested from internal/baseline
SetRestart         REST on the client's own transfers
VerifyTransfer     a checksum after the copy: ROADMAP item 4
NewArchivalStorage the DSI's HPSS profile (§II.A)
NewNISMaps         §IV's PAM backends
NewRADIUSServer    §IV's PAM backends
NewOTPAuthority    §IV's PAM backends
Enroll             §IV's PAM backends (OTP)
NextCode           §IV's PAM backends (OTP)
CutLink            netsim fault hook for ROADMAP item 5
RestoreLink        netsim fault hook for ROADMAP item 5
Trips              dsi fault hook for ROADMAP item 5
LocalAddr          net.Conn
SetWriteDeadline   net.Conn
FromInfos          obs/collector: ROADMAP item 8
EOF
)
status=0
for name in $(printf '%s\n' "$unread" | sed 's/ .*//'); do
	printf '%s\n' "$kept" | grep -qx "$name" && continue
	printf '%s\n' "$unread" | grep "^$name " >&2
	status=1
done
if [ "$status" != 0 ]; then
	echo "check.sh: the exported names above have no reader outside the tests: delete them, or keep them with a reason in scripts/check.sh" >&2
	exit 1
fi
for name in $kept; do
	printf '%s\n' "$unread" | grep -q "^$name " && continue
	echo "check.sh: $name is kept without a reader in scripts/check.sh, but it has one now or is gone: take it off the list" >&2
	status=1
done
[ "$status" = 0 ] || exit 1
if git grep -nE 'Deflate=|"ERET"' -- 'internal/gridftp/*.go' ':!*_test.go'; then
	echo "check.sh: DEFLATE data channels and ERET are not served (CHANGES.md); nothing in internal/gridftp negotiates them" >&2
	exit 1
fi

echo "==> MyProxy reads bounded lines"
# A peer that never sends a newline grows an uncapped ReadString without
# limit; myproxy.readLine checks the cap before it keeps a fragment.
if grep -nF "ReadString('\n')" internal/myproxy/*.go; then
	echo "check.sh: read MyProxy lines through myproxy.readLine, which caps them" >&2
	exit 1
fi

echo "==> a file's parallelism is its size's, over a fixed share; no throughput feedback"
# Per-stream rate falls with file size and with stream count, so it cannot
# signal a shared bottleneck: the autotuner that halved a task's stream budget
# on it throttled mixed-size trees (CHANGES.md).
if grep -nE 'type autotuner|tuner\.observe\(|"transfer\.stream_budget"' internal/transfer/*.go | grep -v '_test\.go:'; then
	echo "check.sh: pick a file's streams with min(sizeStreams, streamShare); the throughput-feedback autotuner and its stream_budget gauge are gone" >&2
	exit 1
fi

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

echo "==> go test -fuzz FuzzLoginReplies -fuzztime 10s ./internal/gridftp"
# The 220 and the 234 precede TLS, so whoever is on the path writes them, and
# the 234 carries the key Delegate signs over.
go test -run '^$' -fuzz FuzzLoginReplies -fuzztime 10s ./internal/gridftp

echo "==> go test -fuzz FuzzRestartRanges -fuzztime 10s ./internal/gridftp"
# REST's ranges come from any client, and the 111s a Put saves for a resume
# from the server; each line is parsed and built into a set.
go test -run '^$' -fuzz FuzzRestartRanges -fuzztime 10s ./internal/gridftp

echo "==> go test -fuzz FuzzReceiveModeE -fuzztime 10s ./internal/gridftp"
# A MODE E receive takes its blocks' offsets and its stream count from the
# sender, a client's STOR or a server's RETR; storage sees only blocks it has
# judged.
go test -run '^$' -fuzz FuzzReceiveModeE -fuzztime 10s ./internal/gridftp

echo "==> go test -fuzz FuzzMyProxyRequest -fuzztime 10s ./internal/myproxy"
# LOGON, PASSPHRASE and PUBKEY come from a peer that has authenticated nobody
# yet.
go test -run '^$' -fuzz FuzzMyProxyRequest -fuzztime 10s ./internal/myproxy

echo "==> go test -fuzz FuzzPosixSandbox -fuzztime 10s ./internal/dsi"
# A user's paths meet a tree that may hold symlinks out of the sandbox, into
# another user's, looping or dangling; os.Root must refuse every way out.
go test -run '^$' -fuzz FuzzPosixSandbox -fuzztime 10s ./internal/dsi

echo "==> non-test lines per package (informational; ./scripts/loc.sh <ref> for a delta)"
./scripts/loc.sh

echo "OK"
