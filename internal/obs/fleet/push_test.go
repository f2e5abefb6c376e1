package fleet_test

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/fleet"
	"gridftp.dev/instant/internal/obs/tenant"
)

// profilerStub is a continuous profiler with one finished window.
type profilerStub struct{}

func (profilerStub) ProfileSummary() (obs.ProfileSummary, bool) {
	return obs.ProfileSummary{
		Window:   obs.ProfileWindow{ID: 7},
		TopAlloc: []obs.ProfileFrame{{Func: "hot.alloc", Flat: 1 << 20, Cum: 1 << 20}},
	}, true
}

// TestPusherUsesTheConfiguredURLForEverything: the pusher has one URL and
// sends one request per tick to exactly it, so a query string, or a
// reverse proxy that names the route something else, carries metrics,
// tenant table and profile summary alike. (The pusher used to derive two
// sibling URLs by suffix-matching "/v1/metrics": with "?via=proxy" on the
// end, or another path, the tenant table and profile summary went to the
// metrics parser, which answered 400 once a second — the head showed the
// instance and its metrics, and nothing else.)
func TestPusherUsesTheConfiguredURLForEverything(t *testing.T) {
	for _, tc := range []struct{ name, path string }{
		{"query string", "/v1/metrics?via=proxy"},
		{"reverse proxy path", "/ingest/fleet"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := fleet.New(fleet.Options{Obs: obs.Nop()})
			head := svc.Handler()

			// What stands in front of the head: requests to the configured
			// URL reach /v1/metrics; anything else is the proxy's 404.
			var mu sync.Mutex
			var seen []string
			front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				mu.Lock()
				seen = append(seen, r.Method+" "+r.URL.RequestURI())
				mu.Unlock()
				if r.URL.RequestURI() != tc.path {
					http.NotFound(w, r)
					return
				}
				r.URL.Path = "/v1/metrics"
				head.ServeHTTP(w, r)
			}))
			defer front.Close()

			o := obs.Nop()
			o.Profile = profilerStub{}
			o.Registry().Counter("gridftp.server.bytes_in").Add(4 << 20)
			acct := tenant.New(tenant.Options{Obs: o})
			acct.BytesMoved("/O=GCMU/OU=siteA/CN=alice", 4<<20)

			// Stopping at once leaves the final push: one tick's worth.
			fleet.StartPusher(front.URL+tc.path, "ep-a", o, acct)()

			mu.Lock()
			requests := append([]string(nil), seen...)
			mu.Unlock()
			if len(requests) == 0 {
				t.Fatal("the pusher sent nothing")
			}
			for _, req := range requests {
				if req != "POST "+tc.path {
					t.Fatalf("the pusher sent %q; its one URL is %q", req, tc.path)
				}
			}

			insts := svc.Instances()
			if len(insts) != 1 || insts[0].Name != "ep-a" || insts[0].Pushes != int64(len(requests)) {
				t.Fatalf("/fleet/instances = %+v, want ep-a with %d pushes (one request a tick)", insts, len(requests))
			}
			svc.Tick(time.Now())
			bytesIn := int64(-1)
			for _, m := range svc.Aggregate().Metrics {
				if m.Name == "fleet.gridftp_server_bytes_in" {
					bytesIn = m.Value
				}
			}
			if bytesIn != 4<<20 {
				t.Fatalf("fleet.gridftp_server_bytes_in = %d, want %d", bytesIn, 4<<20)
			}
			tenants := svc.Tenants(0)
			if len(tenants) != 1 || tenants[0].DN != "/O=GCMU/OU=siteA/CN=alice" || tenants[0].Bytes != 4<<20 {
				t.Fatalf("/fleet/tenants = %+v, want alice with %d bytes", tenants, 4<<20)
			}
			prof := svc.Profile(0)
			if got := prof.Instances["ep-a"].Window.ID; got != 7 {
				t.Fatalf("/fleet/profile lists window %d for ep-a, want 7 (instances: %v)", got, prof.Instances)
			}
			if len(prof.TopAlloc) != 1 || prof.TopAlloc[0].Func != "hot.alloc" {
				t.Fatalf("/fleet/profile TopAlloc = %+v", prof.TopAlloc)
			}
		})
	}
}
