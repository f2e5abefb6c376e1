package fleet

import (
	"fmt"
	"net/http"
	"sort"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/expfmt"
)

// This file federates the continuous-profiling plane: instances push
// their newest profile summary in the envelope, and the head merges the
// per-instance top-N tables into fleet-wide hot-function rankings at GET
// /fleet/profile — "what is the fleet as a whole burning CPU and
// allocation on", with the per-instance summaries preserved for drill-down. Merging top-N tables is
// approximate (each instance already truncated its tail) but that tail
// is exactly what a hot-function ranking doesn't need.

// FleetProfile is the merged view served at /fleet/profile.
type FleetProfile struct {
	// Instances maps instance name to its newest pushed summary.
	Instances map[string]obs.ProfileSummary `json:"instances"`
	// TopCPU/TopAlloc/TopRegressed are the fleet-wide rankings: frames
	// summed across every fresh instance's table, sorted by flat value
	// (Delta for TopRegressed).
	TopCPU       []obs.ProfileFrame `json:"top_cpu,omitempty"`
	TopAlloc     []obs.ProfileFrame `json:"top_alloc,omitempty"`
	TopRegressed []obs.ProfileFrame `json:"top_regressed,omitempty"`
}

// Profile merges the live instances' summaries into the fleet view. A
// stale instance's summary drops out of the rankings but stays listed
// (marked only by its window timestamps).
func (s *Service) Profile(topN int) FleetProfile {
	if topN <= 0 {
		topN = 10
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := FleetProfile{Instances: make(map[string]obs.ProfileSummary)}
	var cpu, alloc, regressed []obs.ProfileFrame
	for name, inst := range s.instances {
		if inst.profile == nil {
			continue
		}
		out.Instances[name] = *inst.profile
		if inst.stale {
			continue
		}
		cpu = append(cpu, inst.profile.TopCPU...)
		alloc = append(alloc, inst.profile.TopAlloc...)
		regressed = append(regressed, inst.profile.TopRegressed...)
	}
	out.TopCPU = mergeFrames(cpu, topN, false)
	out.TopAlloc = mergeFrames(alloc, topN, false)
	out.TopRegressed = mergeFrames(regressed, topN, true)
	return out
}

// mergeFrames sums frames by function and returns the top n by flat
// value (byDelta ranks and sums on Delta instead, for regression
// tables).
func mergeFrames(frames []obs.ProfileFrame, n int, byDelta bool) []obs.ProfileFrame {
	if len(frames) == 0 {
		return nil
	}
	byFunc := make(map[string]*obs.ProfileFrame)
	for _, f := range frames {
		agg := byFunc[f.Func]
		if agg == nil {
			agg = &obs.ProfileFrame{Func: f.Func}
			byFunc[f.Func] = agg
		}
		agg.Flat += f.Flat
		agg.Cum += f.Cum
		agg.Delta += f.Delta
	}
	out := make([]obs.ProfileFrame, 0, len(byFunc))
	for _, f := range byFunc {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool {
		ki, kj := out[i].Flat, out[j].Flat
		if byDelta {
			ki, kj = out[i].Delta, out[j].Delta
		}
		if ki != kj {
			return ki > kj
		}
		return out[i].Func < out[j].Func
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}

func (s *Service) handleProfile(w http.ResponseWriter, r *http.Request) {
	topN := 10
	if v := r.URL.Query().Get("n"); v != "" {
		if _, err := fmt.Sscanf(v, "%d", &topN); err != nil || topN <= 0 {
			http.Error(w, "bad n parameter", http.StatusBadRequest)
			return
		}
	}
	expfmt.ServeJSON(w, s.Profile(topN))
}
