package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from bench/ code only:
// either around a public call the load generator makes, or by the storage
// decorator around a dsi call the program makes. Times are seconds since
// the recorder's epoch (child start).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = top level
	Op     int     `json:"op"`     // 0 = set-up or teardown, n = n-th op of the measured phase
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Bytes  int64   `json:"bytes,omitempty"` // dsi readat/writeat only
}

func (s span) seconds() float64 { return s.End - s.Start }

// layer is the package a span name belongs to: the text before the first
// dot. The root "op" span belongs to the load generator ("client").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return "client"
}

// recorder keeps spans in memory until the child exits. A nil recorder is
// the untraced run: every method is a no-op and call() just calls.
//
// One goroutine drives the ops, so the stack of open call spans belongs to
// it; decorator spans arrive from the program's goroutines and attach to
// whatever call is innermost at that moment — unambiguous because only one
// op is ever in flight.
type recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
	op    int
	stack []int // ids of open call spans, innermost last
}

func newRecorder(epoch time.Time) *recorder {
	return &recorder{epoch: epoch}
}

func (r *recorder) since(t time.Time) float64 { return t.Sub(r.epoch).Seconds() }

// setOp tags every span opened from now on with op id n.
func (r *recorder) setOp(n int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.op = n
	r.mu.Unlock()
}

// call times f as a span named name, a child of the innermost open call.
func (r *recorder) call(name string, f func() error) error {
	if r == nil {
		return f()
	}
	start := time.Now()
	r.mu.Lock()
	id := len(r.spans) + 1
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: r.op, Name: name, Start: r.since(start)})
	r.stack = append(r.stack, id)
	r.mu.Unlock()

	err := f()

	end := time.Now()
	r.mu.Lock()
	r.spans[id-1].End = r.since(end)
	r.stack = r.stack[:len(r.stack)-1]
	r.mu.Unlock()
	return err
}

// leaf records a finished span under the innermost open call; the storage
// decorator uses it from the program's goroutines.
func (r *recorder) leaf(name string, start, end time.Time, bytes int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	parent := 0
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Op: r.op, Name: name,
		Start: r.since(start), End: r.since(end), Bytes: bytes,
	})
	r.mu.Unlock()
}

// snapshot returns a copy of every finished span.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= s.Start && s.End > 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfSeconds returns, for every span id, its duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once; a child is clipped to its parent).
func selfSeconds(spans []span) map[int]float64 {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][][2]float64)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		p, ok := byID[s.Parent]
		if !ok {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < p.Start {
			lo = p.Start
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{lo, hi})
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.seconds() - unionSeconds(kids[s.ID])
	}
	return self
}

// budgetRow is one line of the per-layer budget: one span name, summed
// over the traced ops.
type budgetRow struct {
	Layer string  `json:"layer"`
	Name  string  `json:"name"`
	Total float64 `json:"total_s"` // summed span time
	Self  float64 `json:"self_s"`  // summed self time
	Calls int     `json:"calls"`
}

// layerBudget folds the measured phase's spans — the "op" roots and
// everything under them — into one row per span name and returns the op
// wall time they are read against. The "op" row's own self time is the
// unexplained remainder: op time that no layer span covers. (Leaf spans of
// parallel streams overlap, so self times summed over rows can exceed it.)
func layerBudget(spans []span) (rows []budgetRow, opSeconds float64) {
	// A parent always has a smaller id than its children, so one pass in
	// id order finds every descendant.
	var in []span
	under := map[int]bool{}
	for _, s := range spans {
		if (s.Name == "op" && s.Parent == 0 && s.Op > 0) || under[s.Parent] {
			under[s.ID] = true
			in = append(in, s)
		}
	}
	self := selfSeconds(in)
	acc := map[string]*budgetRow{}
	for _, s := range in {
		row := acc[s.Name]
		if row == nil {
			row = &budgetRow{Layer: s.layer(), Name: s.Name}
			acc[s.Name] = row
		}
		row.Total += s.seconds()
		row.Self += self[s.ID]
		row.Calls++
		if s.Name == "op" {
			opSeconds += s.seconds()
		}
	}
	for _, row := range acc {
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Self > rows[j].Self })
	return rows, opSeconds
}

// unexplainedPct is the share of op wall time under no layer span.
func unexplainedPct(rows []budgetRow, opSeconds float64) float64 {
	for _, r := range rows {
		if r.Name == "op" && opSeconds > 0 {
			return 100 * r.Self / opSeconds
		}
	}
	return 0
}

// writeBudget prints the table: layers by self time, each followed by its
// span names, and the unexplained remainder last.
func writeBudget(w io.Writer, rows []budgetRow, opSeconds float64, ops int) {
	if ops == 0 || opSeconds == 0 {
		return
	}
	perOp := func(v float64) float64 { return v / float64(ops) }
	layerSelf := map[string]float64{}
	var layers []string
	for _, r := range rows {
		if r.Name == "op" {
			continue
		}
		if _, seen := layerSelf[r.Layer]; !seen {
			layers = append(layers, r.Layer)
		}
		layerSelf[r.Layer] += r.Self
	}
	sort.Slice(layers, func(i, j int) bool { return layerSelf[layers[i]] > layerSelf[layers[j]] })
	top := "none"
	if len(layers) > 0 {
		top = layers[0]
	}
	fmt.Fprintf(w, "  per-layer budget over %d traced ops, %.6f s/op wall; top layer: %s\n", ops, perOp(opSeconds), top)
	fmt.Fprintf(w, "    %-22s %12s %12s %8s %10s\n", "layer / span", "total s/op", "self s/op", "self %", "calls/op")
	for _, l := range layers {
		fmt.Fprintf(w, "    %-22s %12s %12.6f %7.1f%%\n", l, "", perOp(layerSelf[l]), 100*layerSelf[l]/opSeconds)
		for _, r := range rows {
			if r.Layer == l && r.Name != "op" {
				fmt.Fprintf(w, "      %-20s %12.6f %12.6f %7.1f%% %10.1f\n", r.Name, perOp(r.Total), perOp(r.Self), 100*r.Self/opSeconds, float64(r.Calls)/float64(ops))
			}
		}
	}
	fmt.Fprintf(w, "    %-22s %12s %12.6f %7.1f%%\n", "(unexplained)", "", perOp(opSeconds)*unexplainedPct(rows, opSeconds)/100, unexplainedPct(rows, opSeconds))
}

// spanMedian is the median of value over the named spans: over the measured
// phase's ops when the call happens there, else over set-up and teardown
// (where persistent-session workloads dial, delegate and close).
func spanMedian(spans []span, name string, value func(span) float64) float64 {
	var inOp, outside []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		if s.Op > 0 {
			inOp = append(inOp, value(s))
		} else {
			outside = append(outside, value(s))
		}
	}
	if len(inOp) > 0 {
		return median(inOp)
	}
	return median(outside)
}
