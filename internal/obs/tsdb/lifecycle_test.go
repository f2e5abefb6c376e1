package tsdb

import (
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
)

// TestRetireHorizonAndReclaim walks one series through the full
// lifecycle: live → tombstoned (still queryable for the whole horizon)
// → reclaimed (gone), with the cardinality counters tracking each step.
func TestRetireHorizonAndReclaim(t *testing.T) {
	r := New(Options{RetireHorizon: time.Minute})
	t0 := time.Unix(50000, 0)
	r.Observe("task-1.throughput", t0, 42)

	if n := r.RetireAt("task-1.", t0); n != 1 {
		t.Fatalf("RetireAt tombstoned %d series, want 1", n)
	}
	if n := r.RetireAt("task-1.", t0.Add(time.Second)); n != 0 {
		t.Fatalf("second RetireAt re-tombstoned %d series, want 0 (original clock kept)", n)
	}
	live, tomb, total := r.LifecycleStats()
	if live != 1 || tomb != 1 || total != 1 {
		t.Fatalf("after retire: live %d tomb %d total %d, want 1/1/1", live, tomb, total)
	}

	// The grace window: still fully queryable right up to the horizon.
	if pts := r.Query("task-1.throughput", time.Time{}, 0); len(pts) != 1 || pts[0].V != 42 {
		t.Fatalf("tombstoned series lost its points: %+v", pts)
	}
	if n := r.Sweep(t0.Add(time.Minute - time.Nanosecond)); n != 0 {
		t.Fatalf("sweep inside horizon reclaimed %d series", n)
	}

	if n := r.Sweep(t0.Add(time.Minute)); n != 1 {
		t.Fatalf("sweep at horizon reclaimed %d series, want 1", n)
	}
	if pts := r.Query("task-1.throughput", time.Time{}, 0); len(pts) != 0 {
		t.Fatalf("reclaimed series still serving points: %+v", pts)
	}
	live, tomb, total = r.LifecycleStats()
	if live != 0 || tomb != 0 || total != 1 {
		t.Fatalf("after reclaim: live %d tomb %d total %d, want 0/0/1 (retiredTotal survives)", live, tomb, total)
	}
}

// TestObserveRevivesTombstone: a straggler observation inside the
// horizon re-mints the series in place — tombstone cleared, history
// intact.
func TestObserveRevivesTombstone(t *testing.T) {
	r := New(Options{})
	t0 := time.Unix(60000, 0)
	r.Observe("s", t0, 1)
	r.RetireAt("s", t0)
	r.Observe("s", t0.Add(time.Second), 2)

	if _, tomb, _ := r.LifecycleStats(); tomb != 0 {
		t.Fatalf("observe did not clear the tombstone (%d tombstoned)", tomb)
	}
	if pts := r.Query("s", time.Time{}, 0); len(pts) != 2 {
		t.Fatalf("revived series history = %+v, want both points", pts)
	}
	// A revived series survives sweeps indefinitely again.
	if n := r.Sweep(t0.Add(24 * time.Hour)); n != 0 {
		t.Fatalf("sweep reclaimed a revived series (%d)", n)
	}
}

// TestReMintAfterReclaim: an observation after the sweep mints a fresh
// incarnation under the old name — no history carryover.
func TestReMintAfterReclaim(t *testing.T) {
	r := New(Options{RetireHorizon: time.Second})
	t0 := time.Unix(70000, 0)
	r.Observe("s", t0, 1)
	r.RetireAt("s", t0)
	r.Sweep(t0.Add(time.Second))

	r.Observe("s", t0.Add(time.Minute), 9)
	pts := r.Query("s", time.Time{}, 0)
	if len(pts) != 1 || pts[0].V != 9 {
		t.Fatalf("re-minted series = %+v, want only the fresh point", pts)
	}
	if live, tomb, total := r.LifecycleStats(); live != 1 || tomb != 0 || total != 1 {
		t.Fatalf("after re-mint: live %d tomb %d total %d, want 1/0/1", live, tomb, total)
	}
}

// TestRetirePrefixDotBoundary: mint sites retire with a trailing dot,
// and the prefix match must not bleed into sibling identifiers that
// share a textual prefix (task-1 vs task-10).
func TestRetirePrefixDotBoundary(t *testing.T) {
	r := New(Options{})
	t0 := time.Unix(80000, 0)
	r.Observe("transfer.task.task-1.throughput", t0, 1)
	r.Observe("transfer.task.task-10.throughput", t0, 2)

	if n := r.RetireAt("transfer.task.task-1.", t0); n != 1 {
		t.Fatalf("retired %d series, want exactly task-1's", n)
	}
	inv := r.Inventory()
	if len(inv) != 2 {
		t.Fatalf("inventory = %+v", inv)
	}
	for _, si := range inv {
		want := "live"
		if si.Name == "transfer.task.task-1.throughput" {
			want = "retired"
			if si.RetiredAt == nil || si.ReclaimAt == nil {
				t.Fatalf("retired entry missing clocks: %+v", si)
			}
		}
		if si.State != want {
			t.Fatalf("%s state %q, want %q", si.Name, si.State, want)
		}
	}
}

// TestSamplerBaselineCleanupOnReclaim: reclaiming a derived ".rate"
// series must drop the sampler's cumulative baseline so a re-minted
// counter starts a fresh window instead of inheriting a stale delta.
func TestSamplerBaselineCleanupOnReclaim(t *testing.T) {
	r := New(Options{RetireHorizon: time.Second})
	t0 := time.Unix(90000, 0)
	reg := obs.NewRegistry()
	c := reg.Counter("c")
	sample := func(v int64, at time.Time) {
		c.Add(v - c.Value())
		r.SampleRegistry(reg, at)
	}
	sample(100, t0)
	sample(400, t0.Add(time.Second))
	if p, ok := r.Latest("c.rate"); !ok || p.V != 300 {
		t.Fatalf("rate = %+v, want 300/s", p)
	}

	r.RetireAt("c.rate", t0.Add(time.Second))
	// The sampling pass itself sweeps: the next snapshot past the
	// horizon reclaims the series and its baseline, so this pass is a
	// baseline-establishing pass again — no rate point re-minted yet,
	// even though the counter jumped.
	sample(1_000_000, t0.Add(3*time.Second))
	if _, ok := r.Latest("c.rate"); ok {
		t.Fatal("rate re-minted on the baseline-establishing pass after reclaim")
	}
	sample(1_000_050, t0.Add(4*time.Second))
	if p, ok := r.Latest("c.rate"); !ok || p.V != 50 {
		t.Fatalf("re-minted rate = %+v, want a fresh 50/s window", p)
	}
}

// TestSampleSnapshotRecordsCardinality: every sampling pass records the
// recorder's own live/retired gauges — the feed for the
// cardinality-watermark alert.
func TestSampleSnapshotRecordsCardinality(t *testing.T) {
	r := New(Options{})
	t0 := time.Unix(95000, 0)
	r.Observe("a", t0, 1)
	r.Observe("b", t0, 1)
	r.RetireAt("b", t0)
	r.SampleRegistry(obs.NewRegistry(), t0.Add(time.Second))

	p, ok := r.Latest("obs.tsdb.series_active")
	// a + b (tombstoned, inside horizon) + the two self-accounting
	// series as they mint.
	if !ok || p.V < 2 {
		t.Fatalf("series_active = %+v, want >= 2", p)
	}
	if p, ok := r.Latest("obs.tsdb.series_retired_total"); !ok || p.V != 1 {
		t.Fatalf("series_retired_total = %+v, want 1", p)
	}
}
