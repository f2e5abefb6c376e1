package tsdb

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"gridftp.dev/instant/internal/obs/expfmt"
)

// The two HTTP views over a (Recorder, Engine) pair. A daemon's admin plane
// mounts them at /debug/timeseries and /alerts; benchreport's dashboard
// decodes both.

// parseSince interprets the ?since= query value: empty means all
// retained history, a Go duration means "that long ago", otherwise
// RFC3339.
func parseSince(v string, now time.Time) (time.Time, error) {
	if v == "" {
		return time.Time{}, nil
	}
	if d, err := time.ParseDuration(v); err == nil {
		if d < 0 {
			d = -d
		}
		return now.Add(-d), nil
	}
	t, err := time.Parse(time.RFC3339, v)
	if err != nil {
		return time.Time{}, fmt.Errorf("since: want duration (30s) or RFC3339: %v", err)
	}
	return t, nil
}

// TimeseriesHandler serves rec's series as JSON, {"now", "series":
// [{name, points}]}: ?series= comma-separated name prefixes, ?since= a Go
// duration back from now() or an RFC 3339 time, ?step= a re-bucket width.
// now is the clock ?since= durations count back from (a head on a test
// clock passes its own).
func TimeseriesHandler(rec *Recorder, now func() time.Time) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		var prefixes []string
		for _, p := range strings.Split(q.Get("series"), ",") {
			if p = strings.TrimSpace(p); p != "" {
				prefixes = append(prefixes, p)
			}
		}
		at := now()
		since, err := parseSince(q.Get("since"), at)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var step time.Duration
		if v := q.Get("step"); v != "" {
			step, err = time.ParseDuration(v)
			if err != nil || step < 0 {
				http.Error(w, "step: want a positive Go duration (15s)", http.StatusBadRequest)
				return
			}
		}
		series := rec.DumpSeries(prefixes, since, step)
		if series == nil {
			series = []SeriesDump{}
		}
		expfmt.ServeJSON(w, map[string]any{"now": at.UTC(), "series": series})
	}
}

// AlertsHandler serves every rule of eng with its live state as JSON,
// {"alerts": [...], "active": <count firing>}: firing first, then pending,
// then inactive, by name within a state so the operator view doesn't
// shuffle between refreshes.
func AlertsHandler(eng *Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		alerts := eng.Alerts()
		rank := map[State]int{StateFiring: 0, StatePending: 1, StateInactive: 2}
		sort.SliceStable(alerts, func(i, j int) bool {
			if rank[alerts[i].State] != rank[alerts[j].State] {
				return rank[alerts[i].State] < rank[alerts[j].State]
			}
			return alerts[i].Rule.Name < alerts[j].Rule.Name
		})
		if alerts == nil {
			alerts = []Alert{}
		}
		expfmt.ServeJSON(w, map[string]any{"alerts": alerts, "active": len(eng.Active())})
	}
}
