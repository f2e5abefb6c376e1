package fleet

import (
	"encoding/json"
	"net/http"
	"path"
	"path/filepath"
	"strconv"
	"strings"

	"gridftp.dev/instant/internal/obs/expfmt"
	"gridftp.dev/instant/internal/obs/tsdb"
)

// Handler returns the federation head's HTTP plane, mounted by the admin
// server under its own mux:
//
//	POST /v1/metrics            ingest one Envelope (JSON; at most 16 MiB)
//	GET  /fleet/instances       the instance registry (JSON)
//	GET  /fleet/metrics         merged fleet aggregate as expfmt text with
//	                            exemplars
//	GET  /fleet/timeseries      fleet recorder dump (?series=, ?since=,
//	                            ?step= as /debug/timeseries)
//	GET  /fleet/alerts          fleet alert engine state (as /alerts)
//	GET  /fleet/bundles         diagnostic bundle manifests; append
//	                            /<bundle>/<file> for one artifact
//	GET  /fleet/profile         merged fleet-wide hot-function rankings
//	                            with per-instance summaries (?n= top size)
//	GET  /fleet/tenants         fleet-merged top tenants by bytes moved
//	                            (?k= table size, default 10)
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/metrics", s.handlePush)
	mux.HandleFunc("/fleet/tenants", s.handleTenants)
	mux.HandleFunc("/fleet/profile", s.handleProfile)
	mux.HandleFunc("/fleet/instances", func(w http.ResponseWriter, r *http.Request) {
		expfmt.ServeJSON(w, s.Instances())
	})
	mux.HandleFunc("/fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", expfmt.TextContentType)
		expfmt.WriteSnapshot(w, s.Aggregate())
	})
	mux.HandleFunc("/fleet/timeseries", tsdb.TimeseriesHandler(s.rec, s.opts.Now))
	mux.HandleFunc("/fleet/alerts", tsdb.AlertsHandler(s.engine))
	mux.HandleFunc("/fleet/bundles", s.handleBundles)
	mux.HandleFunc("/fleet/bundles/", s.handleBundles)
	return mux
}

func (s *Service) handlePush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var env Envelope
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEnvelope)).Decode(&env); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if env.Instance == "" {
		http.Error(w, "envelope names no instance", http.StatusBadRequest)
		return
	}
	if err := s.Ingest(r.RemoteAddr, env, s.opts.Now()); err != nil {
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Service) handleTenants(w http.ResponseWriter, r *http.Request) {
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			http.Error(w, "bad k", http.StatusBadRequest)
			return
		}
		k = n
	}
	expfmt.ServeJSON(w, map[string]any{"tenants": s.Tenants(k)})
}

func (s *Service) handleBundles(w http.ResponseWriter, r *http.Request) {
	if s.bundler == nil {
		http.Error(w, "bundle capture disabled", http.StatusNotFound)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/fleet/bundles")
	rest = strings.Trim(rest, "/")
	if rest == "" {
		expfmt.ServeJSON(w, map[string]any{
			"bundles": s.bundler.Bundles(),
			"skipped": s.bundler.Skipped(),
		})
		return
	}
	// /fleet/bundles/<bundle>/<file>: serve one artifact. path.Clean plus
	// the two-segment shape keeps traversal out of the bundle root.
	clean := path.Clean(rest)
	parts := strings.Split(clean, "/")
	if len(parts) != 2 || strings.HasPrefix(parts[0], ".") || strings.HasPrefix(parts[1], ".") ||
		!strings.HasPrefix(parts[0], "bundle-") {
		http.Error(w, "want /fleet/bundles/<bundle>/<file>", http.StatusBadRequest)
		return
	}
	http.ServeFile(w, r, filepath.Join(s.bundler.opts.Dir, parts[0], parts[1]))
}
