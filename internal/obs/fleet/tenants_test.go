package fleet

import (
	"fmt"
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/expfmt"
	"gridftp.dev/instant/internal/obs/tenant"
)

func tstat(dn string, bytes int64, active int64) tenant.Stat {
	return tenant.Stat{DN: dn, Weight: bytes, Bytes: bytes, Active: active}
}

// ingestTenants folds an envelope that carries a tenant table and nothing
// else.
func ingestTenants(s *Service, instance string, now time.Time, table ...tenant.Stat) error {
	return s.Ingest("", Envelope{Instance: instance, Tenants: table}, now)
}

// startedAt is the metrics half of an envelope from a process started at
// the given time.
func startedAt(start int64) expfmt.Snapshot {
	return expfmt.Snapshot{Metrics: []obs.Metric{
		{Name: "process.start_time_seconds", Kind: "gauge", Value: start},
	}}
}

// TestTenantsMergeAcrossInstances: per-DN sums across pushers, heaviest
// first, with Share computed against fleet bytes and ranks assigned
// after the merge.
func TestTenantsMergeAcrossInstances(t *testing.T) {
	now := time.Unix(10000, 0)
	s := New(Options{Obs: obs.Nop(), Now: func() time.Time { return now }})

	if err := ingestTenants(s, "i1", now, tstat("A", 100, 2), tstat("B", 50, 1)); err != nil {
		t.Fatal(err)
	}
	if err := ingestTenants(s, "i2", now, tstat("A", 30, 1)); err != nil {
		t.Fatal(err)
	}

	got := s.Tenants(0)
	if len(got) != 2 {
		t.Fatalf("Tenants = %+v, want A and B", got)
	}
	a, b := got[0], got[1]
	if a.DN != "A" || a.Rank != 1 || a.Bytes != 130 || a.Active != 3 {
		t.Fatalf("merged A = %+v, want bytes 130, active 3, rank 1", a)
	}
	if want := 130.0 / 180.0; a.Share != want {
		t.Fatalf("A share %v, want %v", a.Share, want)
	}
	if b.DN != "B" || b.Rank != 2 || b.Bytes != 50 {
		t.Fatalf("merged B = %+v", b)
	}
	if a.Hash != tenant.Hash("A") {
		t.Fatalf("merged hash %q does not match the daemon-side series hash", a.Hash)
	}
}

// TestTenantsPerDNFold: one DN's counters running backwards means the
// pusher's sketch evicted and readmitted that DN — fold only that DN's
// finished incarnation, leaving the other tenants' raw counters alone.
func TestTenantsPerDNFold(t *testing.T) {
	now := time.Unix(20000, 0)
	s := New(Options{Obs: obs.Nop(), Now: func() time.Time { return now }})

	ingestTenants(s, "i1", now, tstat("A", 100, 0), tstat("B", 50, 0))
	// A went backwards (evicted, readmitted at 20); B simply advanced.
	ingestTenants(s, "i1", now.Add(time.Second), tstat("A", 20, 0), tstat("B", 60, 0))

	byDN := map[string]tenant.Stat{}
	for _, st := range s.Tenants(0) {
		byDN[st.DN] = st
	}
	if byDN["A"].Bytes != 120 {
		t.Fatalf("A after per-DN fold = %d bytes, want 120 (100 folded + 20 new incarnation)", byDN["A"].Bytes)
	}
	if byDN["B"].Bytes != 60 {
		t.Fatalf("B = %d bytes, want 60 (raw replaced, NOT folded — B never reset)", byDN["B"].Bytes)
	}
}

// TestTenantsRestartFold: a process restart (process.start_time_seconds
// changed) folds the whole tenant table, so the post-restart envelope —
// every DN starting over — keeps fleet totals monotone.
func TestTenantsRestartFold(t *testing.T) {
	now := time.Unix(30000, 0)
	s := New(Options{Obs: obs.Nop(), Now: func() time.Time { return now }})

	s.Ingest("", Envelope{Instance: "i1", Metrics: startedAt(100),
		Tenants: []tenant.Stat{tstat("A", 500, 1), tstat("B", 5, 0)}}, now)

	// Restart: the new incarnation's first envelope carries the new start
	// time and its tenant table (A back at 80, B gone entirely).
	now = now.Add(time.Second)
	s.Ingest("", Envelope{Instance: "i1", Metrics: startedAt(200),
		Tenants: []tenant.Stat{tstat("A", 80, 1)}}, now)

	byDN := map[string]tenant.Stat{}
	for _, st := range s.Tenants(0) {
		byDN[st.DN] = st
	}
	if byDN["A"].Bytes != 580 {
		t.Fatalf("A across restart = %d bytes, want 580 (500 folded + 80 new epoch)", byDN["A"].Bytes)
	}
	if byDN["B"].Bytes != 5 {
		t.Fatalf("B = %d bytes, want the folded 5 even though the new epoch never re-pushed it", byDN["B"].Bytes)
	}
	if byDN["A"].Active != 1 {
		t.Fatalf("A active = %d, want 1 (gauge from the live incarnation only)", byDN["A"].Active)
	}
}

// TestRestartFoldsTenantsInTheSameIngest: a restarted process whose new
// epoch has already moved more for a DN than the old one did shows no per-DN
// counter running backwards, so only the start time can tell — and the fold
// has to happen before the new table lands, in that same ingest. (With the
// table on its own route, whichever push arrived first decided: the table
// first replaced 500 with 600 and the metric push then folded the 600,
// counting the new epoch twice from its next push on.)
func TestRestartFoldsTenantsInTheSameIngest(t *testing.T) {
	now := time.Unix(35000, 0)
	s := New(Options{Obs: obs.Nop(), Now: func() time.Time { return now }})

	s.Ingest("", Envelope{Instance: "i1", Metrics: startedAt(100),
		Tenants: []tenant.Stat{tstat("A", 500, 0)}}, now)
	s.Ingest("", Envelope{Instance: "i1", Metrics: startedAt(200),
		Tenants: []tenant.Stat{tstat("A", 600, 0)}}, now.Add(time.Second))
	if got := s.Tenants(0)[0].Bytes; got != 1100 {
		t.Fatalf("A after the restart envelope = %d bytes, want 1100 (500 folded + 600 new epoch)", got)
	}
	// The new epoch's next envelope replaces its raw side, nothing more.
	s.Ingest("", Envelope{Instance: "i1", Metrics: startedAt(200),
		Tenants: []tenant.Stat{tstat("A", 610, 0)}}, now.Add(2*time.Second))
	if got := s.Tenants(0)[0].Bytes; got != 1110 {
		t.Fatalf("A one push later = %d bytes, want 1110", got)
	}
	if got := s.Instances()[0].Restarts; got != 1 {
		t.Fatalf("restarts = %d, want 1", got)
	}
}

// TestTenantsStaleInstance: a silent instance keeps its cumulative
// contribution frozen in the fleet sums, but its gauge-like Active
// count drops out — same discipline as the counter plane.
func TestTenantsStaleInstance(t *testing.T) {
	now := time.Unix(40000, 0)
	s := New(Options{Obs: obs.Nop(), Now: func() time.Time { return now }})

	ingestTenants(s, "live", now, tstat("A", 100, 2))
	ingestTenants(s, "gone", now, tstat("A", 40, 5))

	// Past StaleAfter with only "live" still pushing.
	now = now.Add(time.Minute)
	ingestTenants(s, "live", now, tstat("A", 100, 2))
	s.Tick(now)

	got := s.Tenants(0)
	if len(got) != 1 {
		t.Fatalf("Tenants = %+v", got)
	}
	if got[0].Bytes != 140 {
		t.Fatalf("A bytes = %d, want 140 (stale instance's cumulative sum stays frozen)", got[0].Bytes)
	}
	if got[0].Active != 2 {
		t.Fatalf("A active = %d, want 2 (stale instance's gauge dropped)", got[0].Active)
	}
}

// TestTenantsTruncationAndCap: k truncates after the merge-wide sort
// (ranks 1..k), and a pusher inventing DNs cannot grow the head past
// maxTenantsPerInstance.
func TestTenantsTruncationAndCap(t *testing.T) {
	now := time.Unix(50000, 0)
	s := New(Options{Obs: obs.Nop(), Now: func() time.Time { return now }})

	table := make([]tenant.Stat, 0, maxTenantsPerInstance+100)
	for i := 0; i < maxTenantsPerInstance+100; i++ {
		table = append(table, tstat(fmt.Sprintf("/CN=flood-%05d", i), int64(i+1), 0))
	}
	if err := ingestTenants(s, "flood", now, table...); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Tenants(maxTenantsPerInstance * 2)); got > maxTenantsPerInstance {
		t.Fatalf("head holds %d tenants for one instance, cap %d", got, maxTenantsPerInstance)
	}

	top := s.Tenants(3)
	if len(top) != 3 {
		t.Fatalf("Tenants(3) = %d entries", len(top))
	}
	for i, st := range top {
		if st.Rank != i+1 {
			t.Fatalf("rank at %d = %d", i, st.Rank)
		}
	}
	if top[0].Bytes <= top[1].Bytes || top[1].Bytes <= top[2].Bytes {
		t.Fatalf("top-3 not heaviest-first: %+v", top)
	}

	// Empty DNs and empty instance names are rejected/skipped.
	if err := ingestTenants(s, "", now, table[:1]...); err == nil {
		t.Fatal("ingest without instance name must error")
	}
	ingestTenants(s, "flood", now, tenant.Stat{DN: "", Bytes: 9})
	for _, st := range s.Tenants(1) {
		if st.DN == "" {
			t.Fatal("empty DN leaked into the merged table")
		}
	}
}
