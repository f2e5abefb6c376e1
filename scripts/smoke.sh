#!/bin/sh
# smoke.sh — start the two daemons the way an operator would and ask them
# for their status: transfer-service and gridftp-server, each with -admin,
# then the pages the bootstrap mounts — the server's stream table (503 for
# ever when the planes were wired by hand), the service's /metrics counting
# the demo task's files, and the toolchain's own /debug/pprof/heap. Then the one exposition format from
# both ends: the server's live /metrics body and, once it is stopped, its
# -metrics exit dump (the same text, then the span forest as "# " lines) are
# grepped as they are. Then
# the flags that are gone must be refused. Last, the demos README's quick
# start names: a cross-CA third-party copy refused (Fig 4) and completed
# with DCSC (Fig 5), a hosted transfer with OAuth activation and an injected
# fault, the GCMU install and console, and E7's four small-file rows. About
# twenty-five seconds; CI's check job runs it, and it is the quickest
# end-to-end drive of internal/admin's bootstrap and of internal/world.
#
# Usage: ./scripts/smoke.sh [service-port=19971] [server-port=19970]
set -eu
cd "$(dirname "$0")/.."
service=127.0.0.1:${1:-19971}
server=127.0.0.1:${2:-19970}

tmp=$(mktemp -d)
pids=
trap 'kill $pids 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$tmp"' EXIT INT TERM

go build -o "$tmp/transfer-service" ./cmd/transfer-service
go build -o "$tmp/gridftp-server" ./cmd/gridftp-server
go build -o "$tmp/benchreport" ./cmd/benchreport
go build -o "$tmp/globus-url-copy" ./cmd/globus-url-copy
go build -o "$tmp/gcmu" ./cmd/gcmu

"$tmp/transfer-service" -size 2M -admin "$service" >"$tmp/service.log" 2>&1 &
pids="$pids $!"
"$tmp/gridftp-server" -admin "$server" -metrics >"$tmp/server.log" 2>"$tmp/server.dump" &
server_pid=$!
pids="$pids $server_pid"

# Both hold for scrapes once their demo is done; /readyz says when.
ready() {
	for _ in $(seq 1 50); do
		if curl -sf "http://$1/readyz" >/dev/null 2>&1; then return 0; fi
		sleep 0.2
	done
	echo "smoke.sh: $1 never became ready" >&2
	cat "$tmp/service.log" "$tmp/server.log" "$tmp/server.dump" >&2
	return 1
}
ready "$service"
ready "$server"
sleep 3 # the self-test's and the demo's transfers

page() { # page <url> <pattern>: fetch (failing on any HTTP error) and require the pattern
	if ! curl -sf "$1" | grep -q "$2"; then
		echo "smoke.sh: $1 lacks $2" >&2
		curl -s "$1" | head -40 >&2
		exit 1
	fi
	echo "ok  $1  ($2)"
}
if ! grep -q '^self-test OK' "$tmp/server.log"; then
	echo "smoke.sh: gridftp-server's self-test did not print OK" >&2
	cat "$tmp/server.log" >&2
	exit 1
fi
echo "ok  gridftp-server self-test"
page "http://$server/debug/streams?format=text" 'STOR'
page "http://$server/debug/streams?format=text" 'RETR'
page "http://$service/metrics" '^transfer_files_total '
# On-demand profiles are the toolchain's: a heap capture is a gzipped pprof.
if [ "$(curl -sf "http://$server/debug/pprof/heap" | od -An -tx1 -N2 | tr -d ' ')" != 1f8b ]; then
	echo "smoke.sh: http://$server/debug/pprof/heap is not a gzip body" >&2
	exit 1
fi
echo "ok  http://$server/debug/pprof/heap  (gzip)"

page "http://$server/metrics" '^gridftp_server_command_seconds_count '
kill -INT "$server_pid"
wait "$server_pid" || true
dump() { # dump <pattern>: the server's -metrics exit dump has a line matching it
	if ! grep -q "$1" "$tmp/server.dump"; then
		echo "smoke.sh: the -metrics exit dump lacks $1" >&2
		head -40 "$tmp/server.dump" >&2
		exit 1
	fi
	echo "ok  -metrics exit dump  ($1)"
}
dump '^gridftp_server_command_seconds_count '
dump '^# gridftp.stor ' # the span forest, after the samples

for gone in '-fleet-scrape x=y' '-collector http://x' '-fleet' '-fleet-bundle-dir /tmp' \
	'-fleet-push http://x' '-fleet-instance x' '-profile-interval 10s' '-profile-retain 5m'; do
	# shellcheck disable=SC2086 # the flag and its value are two words
	if "$tmp/gridftp-server" -selftest=false $gone >"$tmp/gone.log" 2>&1 || ! grep -q 'flag provided but not defined' "$tmp/gone.log"; then
		echo "smoke.sh: gridftp-server accepted $gone" >&2
		cat "$tmp/gone.log" >&2
		exit 1
	fi
	echo "ok  gridftp-server refuses $gone"
done

run() { # run <0|fail> <command...>: require that exit, keep the output for says
	want=$1
	shift
	if "$@" >"$tmp/run.log" 2>&1; then got=0; else got=fail; fi
	if [ "$got" != "$want" ]; then
		echo "smoke.sh: $* exited $got, want $want" >&2
		cat "$tmp/run.log" >&2
		exit 1
	fi
	echo "ok  $*  (exit $got)"
}
says() { # says <ERE> [n]: the last run printed a line matching it (exactly n of them)
	n=$(grep -cE -e "$1" "$tmp/run.log" || true)
	if [ "$n" = 0 ] || [ "$n" != "${2:-$n}" ]; then
		echo "smoke.sh: want ${2:-some} line(s) matching $1, got $n" >&2
		cat "$tmp/run.log" >&2
		exit 1
	fi
	echo "ok    $1"
}
run fail "$tmp/globus-url-copy" -thirdparty -size 1M -rtt 5ms
says 'data channel auth: gsi: cannot build chain .*is not a trust anchor'
run 0 "$tmp/globus-url-copy" -thirdparty -dcsc -size 1M -rtt 5ms
says '-> gsiftp://siteB/data.bin \(third party\)'
run 0 "$tmp/transfer-service" -oauth -fault -size 2M
says 'passwords seen by the service = 0'
says 'attempts: +([2-9]|[1-9][0-9]+)$'
says 'destination content matches'
run 0 "$tmp/gcmu" install
says 'first transfer in'
run 0 "$tmp/gcmu" console
says '/accounts/lock'
run 0 "$tmp/benchreport" -exp e7
says '^(fresh session per file|one session, sequential|one session, pipelined|[0-9]+ concurrent pipelined sessions) ' 4
echo "OK"
