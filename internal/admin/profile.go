package admin

import (
	"fmt"
	"net/http"
	"strconv"

	"gridftp.dev/instant/internal/obs/expfmt"
	"gridftp.dev/instant/internal/obs/profile"
)

// This file mounts the continuous-profiling plane. Where /debug/pprof/
// serves on-demand captures (you ask, then wait), these endpoints serve
// the profiler's retained history: what the process looked like over
// the last five minutes of 10s windows, without having had to be
// watching at the time.
//
//	/debug/profile/continuous       window listing + newest summary (JSON)
//	/debug/profile/continuous/top   latest top-N table (?kind=heap&n=10)
//	/debug/profile/continuous/diff  diff two windows (?base=3&cur=7&kind=heap)
//	/debug/profile/continuous/raw   raw gzipped pprof (?id=7&kind=cpu)

func (s *Server) handleProfileContinuous(w http.ResponseWriter, r *http.Request) {
	p := s.p.Profiler
	latest, ready := p.ProfileSummary()
	resp := map[string]any{
		"interval_seconds": p.Interval().Seconds(),
		"kinds":            p.KindsSorted(),
		"windows":          p.Windows(),
		"ready":            ready,
	}
	if ready {
		resp["latest"] = latest
	}
	expfmt.ServeJSON(w, resp)
}

func (s *Server) handleProfileTop(w http.ResponseWriter, r *http.Request) {
	p := s.p.Profiler
	kind := r.URL.Query().Get("kind")
	if kind == "" {
		kind = profile.KindHeap
	}
	n := 10
	if v := r.URL.Query().Get("n"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil || parsed <= 0 {
			http.Error(w, "bad n parameter", http.StatusBadRequest)
			return
		}
		n = parsed
	}
	expfmt.ServeJSON(w, map[string]any{"kind": kind, "frames": p.Top(kind, n)})
}

func (s *Server) handleProfileDiff(w http.ResponseWriter, r *http.Request) {
	p := s.p.Profiler
	q := r.URL.Query()
	base, err1 := strconv.Atoi(q.Get("base"))
	cur, err2 := strconv.Atoi(q.Get("cur"))
	if err1 != nil || err2 != nil {
		http.Error(w, "base and cur window ids required", http.StatusBadRequest)
		return
	}
	kind := q.Get("kind")
	if kind == "" {
		kind = profile.KindHeap
	}
	frames, ok := p.DiffWindows(base, cur, kind)
	if !ok {
		http.Error(w, "window not in the raw-capture tier", http.StatusNotFound)
		return
	}
	expfmt.ServeJSON(w, map[string]any{"kind": kind, "base": base, "cur": cur, "frames": frames})
}

func (s *Server) handleProfileRaw(w http.ResponseWriter, r *http.Request) {
	p := s.p.Profiler
	q := r.URL.Query()
	id, err := strconv.Atoi(q.Get("id"))
	if err != nil {
		http.Error(w, "id parameter required", http.StatusBadRequest)
		return
	}
	kind := q.Get("kind")
	if kind == "" {
		kind = profile.KindCPU
	}
	data, ok := p.Raw(id, kind)
	if !ok {
		http.Error(w, "no raw capture for that window/kind", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s-window%d.pprof.gz", kind, id))
	w.Write(data)
}
