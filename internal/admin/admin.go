// Package admin is the telemetry export plane shared by every daemon: a
// stdlib net/http server exposing the process's obs bundle to external
// scrapers and operators. The paper's Globus Online layer exists so that
// operators can see transfer state without shelling into endpoints; this
// is the equivalent surface for the reproduction's daemons.
//
// Endpoints:
//
//	/metrics       Prometheus text exposition (?format=json for JSON)
//	/healthz       liveness probes (200 ok / 503 with failing probe names)
//	/readyz        readiness probes (same contract, separate set)
//	/debug/spans   the live span forest as JSON
//	/debug/events  the structured event ring as JSON (?n= limit, ?type= prefix)
//	/debug/streams per-stream wire telemetry (stream-health table; ?format=text)
//	/debug/series  time-series lifecycle inventory: live vs tombstoned series
//	/tenants       per-DN tenant attribution: top-K table plus sketch summary
//	/debug/pprof/  the standard on-demand Go profiling endpoints; for the
//	               retained capture history see /debug/profile/continuous
//	/debug/profile/continuous  the continuous profiler's window ring
//	               (listing, /top, /diff, /raw — see profile.go)
//
// The admin listener is a real OS socket (net.Listen), deliberately
// outside the simulated network substrate the daemons move data over:
// external tools — curl, Prometheus, a browser — must be able to reach
// it.
package admin

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/eventlog"
	"gridftp.dev/instant/internal/obs/expfmt"
	"gridftp.dev/instant/internal/obs/profile"
	"gridftp.dev/instant/internal/obs/streamstats"
	"gridftp.dev/instant/internal/obs/tenant"
	"gridftp.dev/instant/internal/obs/tsdb"
)

// Probe reports one aspect of process health; nil means healthy.
type Probe func() error

// Server serves the admin endpoints for one obs bundle.
type Server struct {
	o   *obs.Obs
	mux *http.ServeMux

	mu     sync.Mutex
	health map[string]Probe
	ready  map[string]Probe

	// Telemetry plane (telemetry.go): the time-series recorder and alert
	// engine behind /debug/timeseries, /alerts, and /debug/stream, plus
	// the SSE fan-out hub. heartbeat overrides the stream keepalive
	// cadence (0 = default; tests shrink it).
	rec       *tsdb.Recorder
	engine    *tsdb.Engine
	hub       streamHub
	heartbeat time.Duration

	// fleet is the federation head's HTTP plane (internal/obs/fleet),
	// delegated to under /fleet/ and /v1/metrics; nil answers 503 so the
	// admin plane keeps one shape whether or not this daemon federates.
	fleet http.Handler

	// profiler is the continuous profiler behind /debug/profile/continuous
	// (profile.go); nil answers 503.
	profiler *profile.Profiler

	// streams is the per-stream wire-telemetry registry behind
	// /debug/streams; nil answers 503 so the route keeps one shape whether
	// or not this daemon tracks data streams.
	streams *streamstats.Registry

	// tenants is the per-DN accounting plane behind /tenants
	// (internal/obs/tenant); nil answers 503.
	tenants *tenant.Accountant

	srv *http.Server
	ln  net.Listener
}

// New builds an admin server over the given obs bundle (nil is valid and
// serves empty telemetry).
func New(o *obs.Obs) *Server {
	s := &Server{
		o:      o,
		mux:    http.NewServeMux(),
		health: make(map[string]Probe),
		ready:  make(map[string]Probe),
	}
	s.mux.HandleFunc("/", s.handleIndex)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.probeHandler(&s.health))
	s.mux.HandleFunc("/readyz", s.probeHandler(&s.ready))
	s.mux.HandleFunc("/debug/spans", s.handleSpans)
	s.mux.HandleFunc("/debug/events", s.handleEvents)
	s.mux.HandleFunc("/debug/timeseries", s.handleTimeseries)
	s.mux.HandleFunc("/debug/streams", s.handleStreams)
	s.mux.HandleFunc("/debug/stream", s.handleStream)
	s.mux.HandleFunc("/debug/series", s.handleSeries)
	s.mux.HandleFunc("/tenants", s.handleTenants)
	s.mux.HandleFunc("/alerts", s.handleAlerts)
	s.mux.HandleFunc("/fleet/", s.handleFleet)
	s.mux.HandleFunc("/v1/metrics", s.handleFleet)
	s.mux.HandleFunc("/debug/profile/continuous", s.handleProfileContinuous)
	s.mux.HandleFunc("/debug/profile/continuous/top", s.handleProfileTop)
	s.mux.HandleFunc("/debug/profile/continuous/diff", s.handleProfileDiff)
	s.mux.HandleFunc("/debug/profile/continuous/raw", s.handleProfileRaw)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the admin mux (for httptest and for embedding the
// admin plane under an existing server).
func (s *Server) Handler() http.Handler { return s.mux }

// SetFleet mounts a fleet federation handler (internal/obs/fleet) under
// /fleet/ and /v1/metrics. Nil unmounts; the routes then answer 503.
func (s *Server) SetFleet(h http.Handler) {
	s.mu.Lock()
	s.fleet = h
	s.mu.Unlock()
}

// SetStreamStats mounts a per-stream wire-telemetry registry
// (internal/obs/streamstats) under /debug/streams. Nil unmounts; the
// route then answers 503.
func (s *Server) SetStreamStats(reg *streamstats.Registry) {
	s.mu.Lock()
	s.streams = reg
	s.mu.Unlock()
}

// SetTenants mounts a per-DN accounting plane (internal/obs/tenant)
// under /tenants. Nil unmounts; the route then answers 503.
func (s *Server) SetTenants(a *tenant.Accountant) {
	s.mu.Lock()
	s.tenants = a
	s.mu.Unlock()
}

// handleTenants serves the top-K tenant attribution table plus sketch
// summary (capacity, admissions, evictions, max overestimate). ?k=
// widens or narrows the table; the sketch's configured TopK is the
// default.
func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	acct := s.tenants
	s.mu.Unlock()
	if acct == nil {
		http.Error(w, "tenant accounting not enabled", http.StatusServiceUnavailable)
		return
	}
	k := 0
	if raw := r.URL.Query().Get("k"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			http.Error(w, "bad k parameter", http.StatusBadRequest)
			return
		}
		k = n
	}
	tenants := acct.TopK(k)
	if tenants == nil {
		tenants = []tenant.Stat{}
	}
	writeJSON(w, map[string]any{
		"tenants": tenants,
		"summary": acct.Stats(),
	})
}

// handleSeries serves the time-series lifecycle inventory: every series
// the recorder holds with its state (live or retired), point count, and
// — for tombstones — when it was retired and when the sweeper will
// reclaim it. This is the operator's view into cardinality governance:
// what obs.tsdb.series_active counts, by name.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	rec := s.rec
	s.mu.Unlock()
	if rec == nil {
		http.Error(w, "telemetry recording not enabled", http.StatusServiceUnavailable)
		return
	}
	inv := rec.Inventory()
	if prefix := r.URL.Query().Get("series"); prefix != "" {
		kept := inv[:0:0]
		for _, si := range inv {
			if strings.HasPrefix(si.Name, prefix) {
				kept = append(kept, si)
			}
		}
		inv = kept
	}
	if inv == nil {
		inv = []tsdb.SeriesInfo{}
	}
	live, tombstoned, retiredTotal := rec.LifecycleStats()
	writeJSON(w, map[string]any{
		"series":        inv,
		"live":          live,
		"tombstoned":    tombstoned,
		"retired_total": retiredTotal,
	})
}

// handleStreams serves the stream-health table: per-transfer, per-stream
// wire telemetry (bytes, EWMA throughput, RTT, retransmits, stall state).
// JSON by default; ?format=text renders the same table an operator sees
// in benchreport's dashboard.
func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	reg := s.streams
	s.mu.Unlock()
	if reg == nil {
		http.Error(w, "stream telemetry not enabled", http.StatusServiceUnavailable)
		return
	}
	transfers := reg.Health()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, streamstats.FormatTable(transfers))
		return
	}
	if transfers == nil {
		transfers = []streamstats.TransferHealth{}
	}
	writeJSON(w, map[string]any{"transfers": transfers})
}

func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	h := s.fleet
	s.mu.Unlock()
	if h == nil {
		http.Error(w, "fleet federation not enabled", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// AddHealth registers a liveness probe under name (replacing any probe
// of the same name).
func (s *Server) AddHealth(name string, p Probe) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.health[name] = p
}

// AddReadiness registers a readiness probe under name.
func (s *Server) AddReadiness(name string, p Probe) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ready[name] = p
}

// ListenAndServe binds addr (e.g. ":9970" or "127.0.0.1:0") and serves
// in the background, returning the bound address.
func (s *Server) ListenAndServe(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	s.mu.Lock()
	s.ln = ln
	s.srv = &http.Server{Handler: s.mux, ReadHeaderTimeout: 10 * time.Second}
	srv := s.srv
	s.mu.Unlock()
	go srv.Serve(ln)
	return ln.Addr(), nil
}

// Addr returns the bound address ("" before ListenAndServe).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and in-flight requests.
func (s *Server) Close() error {
	s.mu.Lock()
	srv := s.srv
	s.mu.Unlock()
	if srv == nil {
		return nil
	}
	return srv.Close()
}

// AwaitInterrupt blocks until SIGINT or SIGTERM — the hold loop daemons
// use when started with -admin so the endpoints stay scrapeable.
func AwaitInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(ch)
	<-ch
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "instant-gridftp admin plane")
	fmt.Fprintln(w, "  /metrics        Prometheus text exposition (?format=json)")
	fmt.Fprintln(w, "  /healthz        liveness probes")
	fmt.Fprintln(w, "  /readyz         readiness probes")
	fmt.Fprintln(w, "  /debug/spans    span forest (JSON)")
	fmt.Fprintln(w, "  /debug/events   event ring (JSON; ?n=50 ?type=transfer.)")
	fmt.Fprintln(w, "  /alerts         SLO alert rules with live state (JSON)")
	fmt.Fprintln(w, "  /debug/timeseries  recorded series (JSON; ?series= ?since=30s ?step=5s)")
	fmt.Fprintln(w, "  /debug/stream   live SSE feed (metric deltas, events, alerts)")
	fmt.Fprintln(w, "  /debug/streams  per-stream wire telemetry / stream-health table (JSON; ?format=text)")
	fmt.Fprintln(w, "  /debug/series   time-series lifecycle inventory (JSON; ?series= prefix)")
	fmt.Fprintln(w, "  /tenants        per-DN top-K tenant attribution (JSON; ?k=)")
	fmt.Fprintln(w, "  /fleet/         fleet federation plane (instances, metrics, timeseries, bundles, profile)")
	fmt.Fprintln(w, "  /v1/metrics     fleet push ingest (POST, one JSON envelope: metrics, tenant table, profile summary)")
	fmt.Fprintln(w, "  /debug/profile/continuous  continuous profiler windows (JSON)")
	fmt.Fprintln(w, "  /debug/profile/continuous/top   newest window's hot functions (?kind= ?n=)")
	fmt.Fprintln(w, "  /debug/profile/continuous/diff  two windows diffed (?base= ?cur= ?kind=)")
	fmt.Fprintln(w, "  /debug/profile/continuous/raw   one raw capture, .pprof.gz (?id= ?kind=)")
	fmt.Fprintln(w, "  /debug/pprof/   on-demand Go profiling (continuous history: /debug/profile/continuous)")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.o.Registry()
	if r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json") {
		w.Header().Set("Content-Type", "application/json")
		if err := expfmt.WriteJSON(w, reg); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	w.Header().Set("Content-Type", expfmt.TextContentType)
	if err := expfmt.WriteText(w, reg); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// probeHandler serves one probe set: 200 with a per-probe "name: ok"
// report, or 503 listing what failed. An empty set is healthy — a daemon
// that registered nothing has nothing that can fail.
func (s *Server) probeHandler(set *map[string]Probe) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		probes := make(map[string]Probe, len(*set))
		for name, p := range *set {
			probes[name] = p
		}
		s.mu.Unlock()
		names := make([]string, 0, len(probes))
		for name := range probes {
			names = append(names, name)
		}
		sort.Strings(names)
		var b strings.Builder
		failed := 0
		for _, name := range names {
			if err := probes[name](); err != nil {
				failed++
				fmt.Fprintf(&b, "%s: %v\n", name, err)
			} else {
				fmt.Fprintf(&b, "%s: ok\n", name)
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if failed > 0 {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		if b.Len() == 0 {
			b.WriteString("ok\n")
		}
		w.Write([]byte(b.String()))
	}
}

// spanJSON is one span (and its subtree) in the /debug/spans response.
// The trace/span ids make the snapshot consumable by the cross-process
// collector (internal/obs/collector), which stitches /debug/spans
// exports from several daemons into one distributed trace.
type spanJSON struct {
	ID           int64             `json:"id"`
	Name         string            `json:"name"`
	TraceID      string            `json:"trace_id,omitempty"`
	SpanID       string            `json:"span_id,omitempty"`
	ParentSpanID string            `json:"parent_span_id,omitempty"`
	Start        time.Time         `json:"start"`
	DurationMS   float64           `json:"duration_ms"`
	Ended        bool              `json:"ended"`
	Attrs        map[string]string `json:"attrs,omitempty"`
	Err          string            `json:"err,omitempty"`
	Children     []*spanJSON       `json:"children,omitempty"`
}

func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	spans := s.o.Tracer().Spans()
	// ?trace=<hex id> narrows the snapshot to one distributed trace —
	// what a collector scrapes when reassembling a specific transfer.
	if want := r.URL.Query().Get("trace"); want != "" {
		kept := spans[:0:0]
		for _, sp := range spans {
			if sp.TraceID == want {
				kept = append(kept, sp)
			}
		}
		spans = kept
	}
	nodes := make(map[int64]*spanJSON, len(spans))
	var roots []*spanJSON
	for _, sp := range spans {
		nodes[sp.ID] = &spanJSON{
			ID: sp.ID, Name: sp.Name, Start: sp.Start,
			TraceID: sp.TraceID, SpanID: sp.SpanID, ParentSpanID: sp.ParentSpanID,
			DurationMS: float64(sp.Duration) / float64(time.Millisecond),
			Ended:      sp.Ended, Attrs: sp.Attrs, Err: sp.Err,
		}
	}
	for _, sp := range spans {
		node := nodes[sp.ID]
		if parent, ok := nodes[sp.Parent]; ok && sp.Parent != 0 {
			parent.Children = append(parent.Children, node)
		} else {
			// Root, or an orphan whose parent was evicted from the
			// bounded span buffer — surface it at top level either way.
			roots = append(roots, node)
		}
	}
	if roots == nil {
		roots = []*spanJSON{}
	}
	writeJSON(w, map[string]any{"spans": roots})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	n := -1
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed < 0 {
			http.Error(w, "bad n parameter", http.StatusBadRequest)
			return
		}
		n = parsed
	}
	events := s.o.EventLog().Events()
	if prefix := r.URL.Query().Get("type"); prefix != "" {
		kept := events[:0:0]
		for _, ev := range events {
			if strings.HasPrefix(ev.Type, prefix) {
				kept = append(kept, ev)
			}
		}
		events = kept
	}
	if n >= 0 && len(events) > n {
		events = events[len(events)-n:]
	}
	if events == nil {
		events = []eventlog.Event{}
	}
	writeJSON(w, map[string]any{"events": events})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
