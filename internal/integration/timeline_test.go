package integration

// End-to-end flight-recorder scenario: a hosted third-party transfer
// through two GCMU endpoints with a tsdb recorder installed as the obs
// bundle's series sink, asserting the task's PERF-marker-driven
// throughput timeline comes out non-empty and monotone in time — the
// contract /debug/timeseries and the benchreport dashboard rely on.

import (
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/tsdb"
	"gridftp.dev/instant/internal/transfer"
	"gridftp.dev/instant/internal/world"
)

func TestTaskThroughputTimelineEndToEnd(t *testing.T) {
	o := obs.Nop()
	rec := tsdb.New(tsdb.Options{})
	o.Series = rec

	// Fast markers so even a quick test transfer produces several
	// timeline samples.
	w, err := world.NewHosted(transfer.Config{Obs: o}, gcmu.Options{MarkerInterval: 10 * time.Millisecond, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	// Shape the WAN so the 1 MiB payload takes a few hundred ms: the
	// 10ms marker interval then yields many aggregate reports, and the
	// throughput series (computed from deltas between reports) is
	// guaranteed at least one point even on a fast machine.
	w.Net.SetDefaultLink(netsim.LinkParams{
		Bandwidth: 2e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 20,
	})

	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 131)
	}
	if err := w.Put("/flight.bin", payload); err != nil {
		t.Fatal(err)
	}
	if err := w.Activate(); err != nil {
		t.Fatal(err)
	}
	svc := w.Service
	task, err := svc.Submit(world.User, "siteA", "/flight.bin", "siteB", "/flight.bin")
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.Wait(task.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != transfer.TaskSucceeded {
		t.Fatalf("task %s: %s (%s)", done.ID, done.Status, done.Error)
	}

	// The recorder holds the task's byte and throughput timelines, fed
	// from the scheduler's PERF aggregation as markers arrived.
	prefix := "transfer.task." + done.ID
	bytesSeries := rec.Query(prefix+".bytes", time.Time{}, 0)
	if len(bytesSeries) == 0 {
		t.Fatalf("no %s.bytes timeline; recorded series: %v", prefix, rec.SeriesNames())
	}
	last := bytesSeries[len(bytesSeries)-1]
	if last.V != float64(len(payload)) {
		t.Errorf("final bytes sample = %v, want %d", last.V, len(payload))
	}
	// Timestamps strictly increase and values (cumulative bytes) never
	// decrease — the monotone-timeline contract.
	for i := 1; i < len(bytesSeries); i++ {
		if !bytesSeries[i].T.After(bytesSeries[i-1].T) {
			t.Fatalf("bytes timeline timestamps not strictly increasing at %d: %v", i, bytesSeries)
		}
		if bytesSeries[i].V < bytesSeries[i-1].V {
			t.Fatalf("cumulative bytes decreased at %d: %v", i, bytesSeries)
		}
	}

	// A throughput timeline exists once two aggregate reports have been
	// seen; every sample is non-negative with increasing timestamps.
	thr := rec.Query(prefix+".throughput", time.Time{}, 0)
	if len(thr) == 0 {
		t.Fatalf("no %s.throughput timeline; recorded series: %v", prefix, rec.SeriesNames())
	}
	for i, p := range thr {
		if p.V < 0 {
			t.Errorf("throughput sample %d negative: %v", i, p)
		}
		if i > 0 && !p.T.After(thr[i-1].T) {
			t.Fatalf("throughput timestamps not strictly increasing at %d: %v", i, thr)
		}
	}

	// Per-worker timelines carry the same task prefix.
	workers := 0
	for _, name := range rec.SeriesNames() {
		if strings.HasPrefix(name, prefix+".worker.") {
			workers++
		}
	}
	if workers == 0 {
		t.Errorf("no per-worker throughput series recorded: %v", rec.SeriesNames())
	}
}
