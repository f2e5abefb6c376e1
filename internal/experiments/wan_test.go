package experiments

import (
	"runtime"
	"testing"
	"time"

	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/streamstats"
)

// TestFreshParallelGetAllocBudget is the MODE E fast path's allocation
// canary: one 1 MiB GET at 16 streams on the reference WAN (40 MB/s, 20 ms,
// 64 KiB windows), counted whole — site, session, transfer, teardown, every
// goroutine. The budget is the fast path's 30,000 plus 20 %, so it catches
// regressions of thousands of allocations, the scale the fast path removed;
// a few more per MODE E block (16 each way here) stay inside it and show in
// a profile diff instead (README.md, "Profiling").
func TestFreshParallelGetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	const budget = 30_000 * 12 / 10
	link := netsim.LinkParams{Bandwidth: 40e6, RTT: 20 * time.Millisecond, StreamWindow: 64 << 10}
	get := func() {
		if _, err := measureWanRate(link, 1<<20, 16, false); err != nil {
			t.Fatal(err)
		}
	}
	get() // warm-up: pools and lazily built state, as any earlier GET leaves them
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	get()
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	t.Logf("%d allocations (budget %d)", allocs, budget)
	if allocs > budget {
		t.Fatalf("a fresh 1 MiB GET at 16 streams made %d allocations, over the budget of %d", allocs, budget)
	}
}

// BenchmarkE18StreamTelemetryOverhead prices the data-path X-ray: the
// same shaped-WAN parallel download with per-stream wire telemetry fully
// installed (both data-path ends instrumented, poller live at the
// daemons' default cadence) versus absent. Telling a stream costs a lock,
// three atomic updates and a clock read per MODE E block, so the budget is
// <=1% of achieved throughput — the deployment question is
// whether watching the wire slows the wire. The link is shaped (40 MB/s,
// wide windows) so pacing pins the transfer time and a genuine slowdown
// would surface as missed pacing slots rather than scheduler jitter;
// each side is best-of-paired-runs, which only ever discards runs the
// OS slowed down. pct-overhead reports the measured loss (small
// negative values are residual noise in the instrumented run's favor).
func BenchmarkE18StreamTelemetryOverhead(b *testing.B) {
	link := netsim.LinkParams{
		Bandwidth:    40e6,
		RTT:          2 * time.Millisecond,
		StreamWindow: 1 << 22,
	}
	const fileBytes = 8 << 20
	const parallelism = 4
	const pairs = 3
	var onBest, offBest float64
	for i := 0; i < b.N; i++ {
		onBest, offBest = 0, 0
		for p := 0; p < pairs; p++ {
			off, err := bestGetRate(link, fileBytes, parallelism, gridftp.ProtClear, nil)
			if err != nil {
				b.Fatal(err)
			}
			reg := streamstats.New(streamstats.Options{Obs: obs.Nop()})
			stop := reg.Start()
			on, err := bestGetRate(link, fileBytes, parallelism, gridftp.ProtClear, reg)
			stop()
			if err != nil {
				b.Fatal(err)
			}
			if on > onBest {
				onBest = on
			}
			if off > offBest {
				offBest = off
			}
		}
	}
	b.ReportMetric(onBest/1e6, "MB/s")
	pct := (offBest - onBest) / offBest * 100
	b.ReportMetric(pct, "pct-overhead")
}
