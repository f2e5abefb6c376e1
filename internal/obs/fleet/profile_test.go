package fleet_test

// Tests for the federated continuous-profiling plane: the regression
// alert's full fault-injection lifecycle (idle baseline → allocation
// burst → firing + diagnostic bundle with the profile window → idle →
// resolved), the bundle's capture → disk → /fleet/bundles round trip
// preserving the window and top-regressed frames, and the fleet-wide
// hot-function merge over pushed per-instance summaries.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/admin"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/eventlog"
	"gridftp.dev/instant/internal/obs/fleet"
	"gridftp.dev/instant/internal/obs/profile"
	"gridftp.dev/instant/internal/obs/tsdb"
)

// profileRules extracts the continuous-profiling rules from the default
// daemon rule set — asserting along the way that they are, in fact,
// installed by default.
func profileRules(t *testing.T) []tsdb.Rule {
	t.Helper()
	var out []tsdb.Rule
	for _, r := range tsdb.DefaultRules() {
		if strings.HasPrefix(r.Name, "profile-") {
			out = append(out, r)
		}
	}
	if len(out) < 2 {
		t.Fatalf("DefaultRules carries %d profile-* rules, want >= 2", len(out))
	}
	return out
}

//go:noinline
func burnAllocations(n int) [][]byte {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, make([]byte, 1<<20))
	}
	return out
}

func TestProfileRegressionAlertLifecycle(t *testing.T) {
	clk := &fleetClock{now: time.Unix(1_700_000_000, 0)}
	o := obs.Nop()
	prof := profile.New(profile.Options{
		Interval:    10 * time.Second,
		CPUDuration: -1, // heap attribution only: keeps the test fast and race-clean
		TopN:        10,
		Obs:         o,
		Now:         func() time.Time { return clk.Now() },
	})
	o.Profile = prof

	svc := fleet.New(fleet.Options{
		Obs:    o,
		Rules:  profileRules(t),
		Bundle: fleet.BundleOptions{Dir: t.TempDir(), ProfileDuration: time.Millisecond},
		Now:    clk.Now,
	})
	// The profiler's obs.profile.* series land in the fleet recorder the
	// alert rules watch.
	o.Series = svc.Recorder()

	capture := func() obs.ProfileSummary {
		t.Helper()
		clk.Advance(10 * time.Second)
		sum, err := prof.CaptureOnce()
		if err != nil {
			t.Fatalf("capture: %v", err)
		}
		return sum
	}
	evalUntil := func(rule string, want tsdb.State, ticks int) {
		t.Helper()
		for i := 0; i < ticks; i++ {
			svc.Tick(clk.Advance(time.Second))
			if alertState(svc.Engine(), rule) == want {
				return
			}
		}
		t.Fatalf("alert %s never reached %s (state %s)", rule, want, alertState(svc.Engine(), rule))
	}

	// Baseline + two idle windows establish a small steady alloc rate.
	capture()
	capture()
	idle := capture()
	if idle.AllocRegression > 3 {
		t.Fatalf("idle window regression ratio %v, want modest", idle.AllocRegression)
	}
	svc.Tick(clk.Advance(time.Second))
	if got := alertState(svc.Engine(), "profile-alloc-regression"); got != tsdb.StateInactive {
		t.Fatalf("alert %s before fault, want inactive", got)
	}

	// Fault injection: a 96 MiB allocation burst inside one window. The
	// heap profile publishes allocations at GC boundaries, so force two
	// cycles to make the burst visible to the capture deterministically.
	sink := burnAllocations(96)
	runtime.GC()
	runtime.GC()
	burst := capture()
	runtime.KeepAlive(sink)
	if burst.AllocRegression <= 3 {
		t.Fatalf("burst window regression ratio %v, want > 3", burst.AllocRegression)
	}
	if len(burst.TopRegressed) == 0 {
		t.Fatal("burst window has no top-regressed frames")
	}

	// The ratio point persists in the recorder; 15s of For plus margin.
	evalUntil("profile-alloc-regression", tsdb.StateFiring, 30)

	// Firing triggered an async bundle capture; wait for it on real time.
	var bundles []fleet.BundleMeta
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if bundles = svc.Bundler().Bundles(); len(bundles) > 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(bundles) == 0 {
		t.Fatal("no diagnostic bundle captured for the firing regression alert")
	}
	meta := bundles[len(bundles)-1]
	if meta.Rule != "profile-alloc-regression" {
		t.Fatalf("bundle rule %q, want profile-alloc-regression", meta.Rule)
	}
	if meta.Profile == nil {
		t.Fatal("bundle meta carries no continuous-profile window")
	}
	if meta.Profile.Window.ID != burst.Window.ID {
		t.Fatalf("bundle profile window %d, want burst window %d", meta.Profile.Window.ID, burst.Window.ID)
	}
	if len(meta.Profile.TopRegressed) == 0 {
		t.Fatal("bundle profile window has no top-regressed frames")
	}

	// Recovery: idle windows drive the ratio back down and the alert
	// resolves after the clear streak outlasts For.
	capture()
	evalUntil("profile-alloc-regression", tsdb.StateInactive, 30)

	fired, resolved := false, false
	for _, ev := range o.EventLog().Events() {
		if ev.Fields["alert"] != "profile-alloc-regression" {
			continue
		}
		switch ev.Type {
		case eventlog.AlertFiring:
			fired = true
		case eventlog.AlertResolved:
			resolved = true
		}
	}
	if !fired || !resolved {
		t.Fatalf("event log: firing=%v resolved=%v, want both", fired, resolved)
	}
}

// TestBundleProfileRoundTrip asserts the continuous-profile window and
// its top-regressed frames survive capture → disk → /fleet/bundles.
func TestBundleProfileRoundTrip(t *testing.T) {
	clk := &fleetClock{now: time.Unix(1_700_000_000, 0)}
	o := obs.Nop()
	prof := profile.New(profile.Options{
		Interval: 10 * time.Second, CPUDuration: -1, Obs: o,
		Now: func() time.Time { return clk.Now() },
	})
	o.Profile = prof
	svc := fleet.New(fleet.Options{
		Obs: o, Rules: profileRules(t),
		Bundle: fleet.BundleOptions{Dir: t.TempDir(), ProfileDuration: time.Millisecond},
		Now:    clk.Now,
	})

	clk.Advance(10 * time.Second)
	prof.CaptureOnce() // baseline
	clk.Advance(10 * time.Second)
	prof.CaptureOnce() // quiet window
	sink := burnAllocations(32)
	runtime.GC() // publish the burst to the heap profile (flushed at GC)
	runtime.GC()
	clk.Advance(10 * time.Second)
	sum, err := prof.CaptureOnce()
	runtime.KeepAlive(sink)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	if len(sum.TopRegressed) == 0 {
		t.Fatal("burst window has no regressed frames to round-trip")
	}

	// Synchronous capture, as the engine tap would run it.
	name, err := svc.Bundler().Capture(tsdb.Transition{
		Rule: "profile-alloc-regression", Series: "obs.profile.alloc.regression_ratio",
		To: tsdb.StateFiring, At: clk.Now(), Value: sum.AllocRegression, Severity: "page",
	}, 1)
	if err != nil {
		t.Fatalf("bundle capture: %v", err)
	}

	// Serve the bundle plane over real HTTP through the admin mount.
	ts := httptest.NewServer(admin.New(o, admin.Planes{Fleet: svc.Handler()}).Handler())
	defer ts.Close()

	var listing struct {
		Bundles []fleet.BundleMeta `json:"bundles"`
	}
	getJSON(t, ts.Client(), ts.URL+"/fleet/bundles", &listing)
	if len(listing.Bundles) != 1 {
		t.Fatalf("bundle listing has %d entries, want 1", len(listing.Bundles))
	}
	m := listing.Bundles[0]
	if m.Name != name {
		t.Fatalf("listed bundle %q, want %q", m.Name, name)
	}
	if m.Profile == nil {
		t.Fatal("profile window lost on the disk round trip")
	}
	if m.Profile.Window.ID != sum.Window.ID {
		t.Fatalf("round-tripped window id %d, want %d", m.Profile.Window.ID, sum.Window.ID)
	}
	if len(m.Profile.TopRegressed) != len(sum.TopRegressed) ||
		m.Profile.TopRegressed[0].Func != sum.TopRegressed[0].Func ||
		m.Profile.TopRegressed[0].Delta != sum.TopRegressed[0].Delta {
		t.Fatalf("top-regressed frames mutated in transit:\n  got  %+v\n  want %+v",
			m.Profile.TopRegressed, sum.TopRegressed)
	}
	found := false
	for _, f := range m.Files {
		if f == "profile.json" {
			found = true
		}
	}
	if !found {
		t.Fatalf("profile.json missing from bundle files %v", m.Files)
	}

	// And the artifact itself is fetchable and parses.
	var artifact struct {
		Window *obs.ProfileSummary `json:"window"`
	}
	getJSON(t, ts.Client(), ts.URL+"/fleet/bundles/"+name+"/profile.json", &artifact)
	if artifact.Window == nil || artifact.Window.Window.ID != sum.Window.ID {
		t.Fatalf("profile.json artifact window = %+v, want id %d", artifact.Window, sum.Window.ID)
	}
}

// TestFleetProfileMerge pushes two instances' summaries over HTTP (an
// envelope with nothing but a profile) and asserts the fleet-wide ranking
// sums shared functions.
func TestFleetProfileMerge(t *testing.T) {
	clk := &fleetClock{now: time.Unix(1_700_000_000, 0)}
	o := obs.Nop()
	svc := fleet.New(fleet.Options{Obs: o, Now: clk.Now})
	ts := httptest.NewServer(admin.New(o, admin.Planes{Fleet: svc.Handler()}).Handler())
	defer ts.Close()

	mk := func(id int, fn string, flat int64) obs.ProfileSummary {
		return obs.ProfileSummary{
			Window:           obs.ProfileWindow{ID: id, Start: clk.Now(), End: clk.Now()},
			AllocBytesPerSec: float64(flat),
			TopAlloc: []obs.ProfileFrame{
				{Func: fn, Flat: flat, Cum: flat},
				{Func: "shared.hot", Flat: 100, Cum: 100},
			},
			TopCPU:       []obs.ProfileFrame{{Func: "cpu." + fn, Flat: flat}},
			TopRegressed: []obs.ProfileFrame{{Func: fn, Flat: flat, Delta: flat / 2}},
		}
	}
	pushProfile := func(instance string, sum obs.ProfileSummary) {
		t.Helper()
		if err := fleet.Push(ts.URL+"/v1/metrics", fleet.Envelope{Instance: instance, Profile: &sum}); err != nil {
			t.Fatalf("push %s: %v", instance, err)
		}
	}
	pushProfile("ep-a", mk(3, "a.alloc", 1000))
	pushProfile("ep-b", mk(5, "b.alloc", 400))

	var fp fleet.FleetProfile
	getJSON(t, ts.Client(), ts.URL+"/fleet/profile", &fp)
	if len(fp.Instances) != 2 {
		t.Fatalf("fleet profile lists %d instances, want 2", len(fp.Instances))
	}
	if got := fp.Instances["ep-a"].Window.ID; got != 3 {
		t.Fatalf("ep-a window id %d, want 3", got)
	}
	if len(fp.TopAlloc) == 0 || fp.TopAlloc[0].Func != "a.alloc" {
		t.Fatalf("fleet TopAlloc[0] = %+v, want a.alloc leading", fp.TopAlloc)
	}
	var shared *obs.ProfileFrame
	for i := range fp.TopAlloc {
		if fp.TopAlloc[i].Func == "shared.hot" {
			shared = &fp.TopAlloc[i]
		}
	}
	if shared == nil || shared.Flat != 200 {
		t.Fatalf("shared.hot not summed across instances: %+v", fp.TopAlloc)
	}
	if len(fp.TopRegressed) == 0 || fp.TopRegressed[0].Func != "a.alloc" {
		t.Fatalf("fleet TopRegressed = %+v, want a.alloc leading by delta", fp.TopRegressed)
	}

	// Staleness: a tick past the horizon marks both instances stale, and a
	// profile is stale exactly when its instance is; rankings empty but the
	// per-instance summaries stay listed. Fresh struct: the ranking
	// fields are omitempty, so re-decoding into fp would keep old data.
	svc.Tick(clk.Advance(time.Minute))
	var stale fleet.FleetProfile
	getJSON(t, ts.Client(), ts.URL+"/fleet/profile", &stale)
	if len(stale.TopAlloc) != 0 {
		t.Fatalf("stale instances still ranked: %+v", stale.TopAlloc)
	}
	if len(stale.Instances) != 2 {
		t.Fatalf("stale instances dropped from listing: %d", len(stale.Instances))
	}
}

func getJSON(t *testing.T, c *http.Client, url string, v any) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("GET %s: unmarshal: %v", url, err)
	}
}
