// Package admin is the telemetry export plane shared by every daemon: a
// stdlib net/http server exposing the process's obs bundle to external
// scrapers and operators. The paper's Globus Online layer exists so that
// operators can see transfer state without shelling into endpoints; this
// is the equivalent surface for the reproduction's daemons.
//
// The routes are one table (Server.routes, built in New): what is mounted
// is what GET / lists. The bundle's own routes are always there; each
// optional plane in Planes brings its routes with it and a nil plane
// brings none (404, and absent from the index) — there is no "not enabled"
// answer.
//
// The admin listener is a real OS socket (net.Listen), deliberately
// outside the simulated network substrate the daemons move data over:
// external tools — curl, Prometheus, a browser — must be able to reach
// it.
package admin

import (
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
	"gridftp.dev/instant/internal/obs/expfmt"
	"gridftp.dev/instant/internal/obs/streamstats"
	"gridftp.dev/instant/internal/obs/tsdb"
)

// Probe reports one aspect of readiness; nil means ready.
type Probe func() error

// Planes are the optional planes an admin server serves, each with the
// routes it brings. The bootstrap (boot.go) fills all of them.
type Planes struct {
	// Recorder is behind /debug/timeseries, Engine behind /alerts; Start
	// runs the sampler that feeds the one and evaluates the other.
	Recorder *tsdb.Recorder
	Engine   *tsdb.Engine
	// Streams is the per-stream wire-telemetry registry: /debug/streams.
	Streams *streamstats.Registry
}

// route is one line of the route table: what is mounted and what the
// index page says about it.
type route struct {
	path, doc string
	h         http.HandlerFunc
}

// Server serves the admin endpoints for one obs bundle.
type Server struct {
	o      *obs.Obs
	p      Planes
	mux    *http.ServeMux
	routes []route

	mu    sync.Mutex
	ready map[string]Probe
	srv   *http.Server
	ln    net.Listener
}

// New builds an admin server over the given obs bundle (nil is valid and
// serves empty telemetry) and planes.
func New(o *obs.Obs, p Planes) *Server {
	s := &Server{
		o:     o,
		p:     p,
		mux:   http.NewServeMux(),
		ready: make(map[string]Probe),
	}
	s.routes = []route{
		{"/metrics", "Prometheus text exposition", s.handleMetrics},
		{"/healthz", "liveness: ok while the process answers HTTP", handleHealthz},
		{"/readyz", "readiness probes", s.handleReadyz},
		{"/debug/spans", "span forest (JSON; ?trace=)", s.handleSpans},
		{"/debug/events", "event ring (JSON; ?n=50 ?type=transfer.)", s.handleEvents},
		{"/debug/pprof/", "on-demand Go profiling (capture on request)", pprof.Index},
	}
	if p.Recorder != nil {
		s.routes = append(s.routes, route{"/debug/timeseries", "recorded series (JSON; ?series= ?since=30s ?step=5s)", tsdb.TimeseriesHandler(p.Recorder, time.Now)})
	}
	if p.Engine != nil {
		s.routes = append(s.routes, route{"/alerts", "SLO alert rules with live state (JSON)", tsdb.AlertsHandler(p.Engine)})
	}
	if p.Streams != nil {
		s.routes = append(s.routes, route{"/debug/streams", "per-stream wire telemetry / stream health table (JSON; ?format=text)", s.handleStreams})
	}
	s.mux.HandleFunc("/", s.handleIndex)
	for _, rt := range s.routes {
		s.mux.HandleFunc(rt.path, rt.h)
	}
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the admin mux (for httptest and for embedding the
// admin plane under an existing server).
func (s *Server) Handler() http.Handler { return s.mux }

// Start runs the registry sampler over the server's recorder, evaluating
// the alert rules after every pass, and returns its stop (idempotent). A
// server without a recorder has nothing to run.
func (s *Server) Start() (stop func()) {
	if s.p.Recorder == nil {
		return func() {}
	}
	return s.p.Recorder.Start(s.o.Registry(), s.p.Engine)
}

// handleStreams serves the stream health table: per-transfer, per-stream
// wire telemetry (bytes, EWMA throughput, RTT, retransmits, stall state).
// JSON by default; ?format=text renders the same table an operator sees
// in benchreport's dashboard.
func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	transfers := s.p.Streams.Health()
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, streamstats.FormatTable(transfers))
		return
	}
	if transfers == nil {
		transfers = []streamstats.TransferHealth{}
	}
	expfmt.ServeJSON(w, map[string]any{"transfers": transfers})
}

// AddReadiness registers a readiness probe under name (replacing any probe
// of the same name).
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
	for _, rt := range s.routes {
		fmt.Fprintf(w, "  %-30s %s\n", rt.path, rt.doc)
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", expfmt.TextContentType)
	if err := expfmt.WriteText(w, s.o.Registry()); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleHealthz is liveness: a process that answers is alive.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz serves the readiness probes: 200 with a per-probe "name: ok"
// report, or 503 listing what failed. An empty set is ready — a server
// that registered nothing has nothing that can fail.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	probes := make(map[string]Probe, len(s.ready))
	for name, p := range s.ready {
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
	expfmt.ServeJSON(w, map[string]any{"spans": roots})
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
	events := s.o.Events()
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
	expfmt.ServeJSON(w, map[string]any{"events": events})
}
