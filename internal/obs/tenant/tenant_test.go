package tenant

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/tsdb"
)

// TestChurnBoundedAndAccurate drives 10k distinct synthetic tenants
// through a 256-slot sketch from concurrent writers — the fleet-scale
// churn scenario — and checks the space-saving contract: memory stays
// at the slot capacity, every heavy hitter (true weight > N/C) is
// present, and every reported weight brackets the truth within the
// per-slot error bound.
func TestChurnBoundedAndAccurate(t *testing.T) {
	const (
		capacity = 256
		tenants  = 10000
		heavy    = 20
		writers  = 8
	)
	a := New(Options{Capacity: capacity, TopK: 10})

	// Ground truth: heavy tenants move 200 KB each (in chunks, so the
	// sketch sees many touches), light tenants at most a few bytes.
	exact := make(map[string]int64, tenants)
	dns := make([]string, tenants)
	for i := range dns {
		dn := fmt.Sprintf("/O=Grid/OU=churn/CN=user-%05d", i)
		dns[i] = dn
		if i < heavy {
			exact[dn] = 200_000
		} else {
			exact[dn] = int64(1 + i%7)
		}
	}

	// Each writer owns a disjoint shard of DNs so the per-DN ground
	// truth needs no synchronization; the sketch itself is shared.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < tenants; i += writers {
				dn := dns[i]
				total := exact[dn]
				for moved := int64(0); moved < total; {
					chunk := total - moved
					if chunk > 50_000 {
						chunk = 50_000
					}
					a.BytesMoved(dn, chunk)
					moved += chunk
				}
			}
		}(w)
	}
	wg.Wait()

	sum := a.Stats()
	if sum.Tracked > capacity {
		t.Fatalf("tracked %d tenants, capacity %d — memory not bounded", sum.Tracked, capacity)
	}
	var n int64
	for _, w := range exact {
		n += w
	}
	if sum.TotalWeight != n {
		t.Fatalf("total weight %d, want %d (every byte observed exactly once)", sum.TotalWeight, n)
	}
	bound := n / capacity
	if sum.MaxError != bound {
		t.Fatalf("MaxError %d, want N/C = %d", sum.MaxError, bound)
	}

	table := a.TopK(capacity)
	byDN := make(map[string]Stat, len(table))
	for _, st := range table {
		byDN[st.DN] = st
	}
	// Heavy-hitter guarantee: every tenant above the error bound is in
	// the table, and in the top-K (heavy count < K would also hold, but
	// the K=10 view must surface only heavy tenants here since every
	// heavy weight dwarfs bound+light).
	for i := 0; i < heavy; i++ {
		st, ok := byDN[dns[i]]
		if !ok {
			t.Fatalf("heavy hitter %s (weight %d > bound %d) missing from table", dns[i], exact[dns[i]], bound)
		}
		if st.Weight < exact[dns[i]] {
			t.Fatalf("%s weight %d underestimates exact %d — space-saving never underestimates", dns[i], st.Weight, exact[dns[i]])
		}
	}
	top := a.TopK(heavy)
	if len(top) != heavy {
		t.Fatalf("TopK(%d) returned %d entries", heavy, len(top))
	}
	for _, st := range top {
		if exact[st.DN] != 200_000 {
			t.Fatalf("top-%d contains light tenant %s (weight %d, err %d)", heavy, st.DN, st.Weight, st.Err)
		}
	}
	// Error contract on everything reported, heavy or light.
	for _, st := range table {
		if st.Err > bound {
			t.Fatalf("%s err %d exceeds N/C bound %d", st.DN, st.Err, bound)
		}
		truth := exact[st.DN]
		if st.Weight < truth || st.Weight-st.Err > truth {
			t.Fatalf("%s weight %d (err %d) does not bracket exact %d", st.DN, st.Weight, st.Err, truth)
		}
	}
}

// TestOperationalAggregatesExact checks the exact-since-admission side
// counters and the derived rates of the /tenants view.
func TestOperationalAggregatesExact(t *testing.T) {
	a := New(Options{Capacity: 8, TopK: 4})
	a.TaskSubmitted("A")
	a.TaskDone("A", false)
	a.Command("A", true)
	a.Command("A", false)
	a.QueueWait("A", 1500*time.Millisecond)
	a.TransferStarted("A")
	a.BytesMoved("A", 300)
	a.BytesMoved("B", 700)

	top := a.TopK(0)
	if len(top) != 2 || top[0].DN != "B" || top[1].DN != "A" {
		t.Fatalf("TopK order = %+v, want B then A", top)
	}
	st := top[1]
	if st.Tasks != 1 || st.TasksFailed != 1 || st.Commands != 2 || st.CommandErrors != 1 {
		t.Fatalf("A counters = %+v", st)
	}
	if st.QueueWaitSeconds != 1.5 || st.Active != 1 || st.Bytes != 300 {
		t.Fatalf("A aggregates = %+v", st)
	}
	// 2 failures over 3 task+command events.
	if want := 2.0 / 3.0; st.ErrorRate != want {
		t.Fatalf("A error rate %v, want %v", st.ErrorRate, want)
	}
	if want := 0.3; st.Share != want {
		t.Fatalf("A share %v, want %v", st.Share, want)
	}
	a.TransferEnded("A")
	a.TransferEnded("A") // over-decrement clamps at zero
	if got := a.TopK(0)[1].Active; got != 0 {
		t.Fatalf("active after paired+extra end = %d, want 0", got)
	}
}

// TestPublishBoundsSeriesAndRetiresDropouts runs churn through a real
// recorder: the series budget must stay at K tenant timelines (4 series
// each) plus the 5 summary series, with drop-outs tombstoned and — once
// the retire horizon elapses — reclaimed. This is the "series bounded
// by K + retention horizon" acceptance check.
func TestPublishBoundsSeriesAndRetiresDropouts(t *testing.T) {
	const topK = 5
	rec := tsdb.New(tsdb.Options{RetireHorizon: time.Millisecond})
	o := obs.Nop()
	o.Series = rec
	a := New(Options{Capacity: 64, TopK: topK, Obs: o})

	// 40 rounds; each round a fresh cohort of tenants out-weighs the
	// previous top-K, forcing full turnover of the published set.
	now := time.Now()
	weight := int64(1000)
	for round := 0; round < 40; round++ {
		for i := 0; i < topK; i++ {
			a.BytesMoved(fmt.Sprintf("/CN=round%02d-user%d", round, i), weight)
		}
		weight += 1000 // later cohorts strictly heavier
		now = now.Add(time.Second)
		a.Publish(now)
	}

	const budget = topK*4 + 5
	live, tombstoned, retired := rec.LifecycleStats()
	if live-tombstoned > budget {
		t.Fatalf("%d non-tombstoned series after churn, budget %d", live-tombstoned, budget)
	}
	if retired == 0 {
		t.Fatal("no series were retired across 40 rounds of top-K turnover")
	}
	// The horizon (1ms against wall-clock tombstones) has elapsed:
	// sweeping far in the future reclaims every tombstone and the
	// recorder is back to exactly the budget.
	rec.Sweep(time.Now().Add(time.Hour))
	live, tombstoned, _ = rec.LifecycleStats()
	if tombstoned != 0 || live > budget {
		t.Fatalf("after sweep: live %d (budget %d), tombstoned %d", live, budget, tombstoned)
	}

	// The current top-K all have live series; hashes are stable.
	for _, st := range a.TopK(0) {
		if _, ok := rec.Latest(SeriesPrefix + st.Hash + ".bytes_total"); !ok {
			t.Fatalf("current top tenant %s has no live bytes_total series", st.DN)
		}
	}
}

// TestPublishTopShareSingleTenantGuard: a box with one active tenant
// must publish top_share 0 (share 1.0 would permanently trip the
// capture-alert), while two active tenants publish the real ratio.
func TestPublishTopShareSingleTenantGuard(t *testing.T) {
	rec := tsdb.New(tsdb.Options{})
	o := obs.Nop()
	o.Series = rec
	a := New(Options{Capacity: 8, TopK: 4, Obs: o})

	now := time.Now()
	a.BytesMoved("A", 100)
	a.Publish(now)
	a.BytesMoved("A", 100)
	a.Publish(now.Add(time.Second))
	if p, ok := rec.Latest(SeriesPrefix + "top_share"); !ok || p.V != 0 {
		t.Fatalf("single-tenant top_share = %+v, want 0", p)
	}

	// B's first published tick only establishes its rate baseline; the
	// ratio appears once both tenants have an interval delta.
	a.BytesMoved("A", 300)
	a.BytesMoved("B", 100)
	a.Publish(now.Add(2 * time.Second))
	a.BytesMoved("A", 300)
	a.BytesMoved("B", 100)
	a.Publish(now.Add(3 * time.Second))
	p, ok := rec.Latest(SeriesPrefix + "top_share")
	if !ok || p.V != 0.75 {
		t.Fatalf("two-tenant top_share = %+v, want 0.75", p)
	}
}

// TestNilAccountantSafe: the facility contract — every method on a nil
// receiver is a no-op.
func TestNilAccountantSafe(t *testing.T) {
	var a *Accountant
	a.BytesMoved("A", 1)
	a.TaskSubmitted("A")
	a.TaskDone("A", false)
	a.Command("A", true)
	a.QueueWait("A", time.Second)
	a.TransferStarted("A")
	a.TransferEnded("A")
	a.Publish(time.Now())
	defer a.Start()()
	if got := a.TopK(5); got != nil {
		t.Fatalf("nil TopK = %v", got)
	}
	if got := a.Stats(); got != (Summary{}) {
		t.Fatalf("nil Stats = %+v", got)
	}
}

// TestHashStableAndPadded: the series identifier must be deterministic
// and always 8 hex digits (series names are parsed by dashboards).
func TestHashStableAndPadded(t *testing.T) {
	if Hash("/CN=x") != Hash("/CN=x") {
		t.Fatal("hash not deterministic")
	}
	for _, dn := range []string{"", "/CN=a", "/O=Grid/OU=dept/CN=someone-with-a-long-name"} {
		h := Hash(dn)
		if len(h) != 8 {
			t.Fatalf("Hash(%q) = %q, want 8 hex digits", dn, h)
		}
		for _, c := range h {
			if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
				t.Fatalf("Hash(%q) = %q contains non-hex %q", dn, h, c)
			}
		}
	}
}
