// Package fleet is the federation layer over per-process telemetry: one
// service ingests an Envelope per tick from N gridftp/transfer processes
// (metrics, tenant table and profile summary in one POST to /v1/metrics),
// keeps an instance registry keyed by instance name with
// identity anchored in process.start_time_seconds, and merges the
// per-instance series into fleet aggregates: counters summed across
// restart epochs, gauges summed over live instances, histograms merged
// bucket-wise so fleet p50/p90/p99 come from real pooled buckets. The
// aggregates feed a fleet-level tsdb recorder and alert engine
// (tsdb.DefaultFleetRules), and alert transitions trigger diagnostic
// bundle capture (bundle.go). This is the pane the paper's managed-fleet
// pitch implies and ROADMAP item 4's chaos harness asserts against.
package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/expfmt"
	"gridftp.dev/instant/internal/obs/tenant"
	"gridftp.dev/instant/internal/obs/tsdb"
)

// maxInstances bounds the registry: a misbehaving pusher inventing
// instance names must not grow memory without limit.
const maxInstances = 1024

// Options configures a fleet Service. Zero fields take defaults.
type Options struct {
	// StaleAfter is how long an instance may go without a push before it
	// is marked stale (default 10s).
	StaleAfter time.Duration
	// Rules are the alert rules for the fleet engine (default
	// tsdb.DefaultFleetRules).
	Rules []tsdb.Rule
	// Bundle configures diagnostic bundle capture; a zero Dir disables it.
	Bundle BundleOptions
	// Obs is the federation head's own observability bundle; alerts and
	// events report into it. Nil degrades to no-ops.
	Obs *obs.Obs
	// Now overrides the clock for deterministic tests.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.StaleAfter <= 0 {
		o.StaleAfter = 10 * time.Second
	}
	if o.Rules == nil {
		o.Rules = tsdb.DefaultFleetRules()
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// instanceState is one registered instance. Counters and histograms
// accumulate across process restarts: when a push arrives with a new
// process.start_time_seconds (or a counter that went backwards), the
// previous epoch's raw values fold into the bases, so fleet sums keep
// monotone counters and the tsdb rate derivation never sees a reset.
type instanceState struct {
	name      string
	addr      string
	firstSeen time.Time
	lastSeen  time.Time
	startTime int64 // process.start_time_seconds of the current epoch
	restarts  int
	pushes    int64
	stale     bool

	gauges      map[string]int64
	counterBase map[string]int64 // folded prior epochs
	counterRaw  map[string]int64 // current epoch, as reported
	histBase    map[string]obs.HistogramSnapshot
	histRaw     map[string]obs.HistogramSnapshot

	// The envelope's tenant table, under the same epoch discipline as
	// counters: tenantRaw is the current incarnation as reported,
	// tenantBase the folded prior incarnations (process restarts fold
	// everything; a per-DN counter running backwards — the pusher's sketch
	// evicted and readmitted that DN — folds just that DN). See tenants.go.
	tenantBase map[string]tenantCounters
	tenantRaw  map[string]tenantCounters

	// profile is the envelope's newest continuous-profile summary
	// (profile.go); merged on demand, never ticked, stale when the
	// instance is.
	profile *obs.ProfileSummary

	goodputPrev float64 // effective goodput-counter sum at the last Tick
	goodputRate float64 // bytes/sec over the last Tick interval
}

// startTimeGauge is the canonical (wire-form) name of the process
// identity gauge anchoring restart detection.
const startTimeGauge = "process_start_time_seconds"

// goodputCounters are the counters whose summed rate is an instance's
// goodput, in the canonical wire form ingested names have (dots become
// underscores on the exposition).
var goodputCounters = [...]string{"gridftp_server_bytes_in", "gridftp_server_bytes_out"}

// identityGauges are per-process identity, not fleet quantities: they
// anchor restart detection and are excluded from gauge aggregation
// (summing start times across a fleet is meaningless). Keys are
// canonical wire-form names.
var identityGauges = map[string]bool{
	startTimeGauge:           true,
	"process_uptime_seconds": true,
}

// Instance is the registry view of one instance served by
// /fleet/instances.
type Instance struct {
	Name      string    `json:"name"`
	Addr      string    `json:"addr,omitempty"`
	Up        bool      `json:"up"`
	Stale     bool      `json:"stale"`
	FirstSeen time.Time `json:"first_seen"`
	LastSeen  time.Time `json:"last_seen"`
	StartTime int64     `json:"start_time_seconds,omitempty"`
	Restarts  int       `json:"restarts"`
	Pushes    int64     `json:"pushes"`
	// GoodputBps is the instance's goodput-counter rate over the last
	// aggregation tick.
	GoodputBps float64 `json:"goodput_bps"`
}

// Service is the federation head. Construct with New.
type Service struct {
	opts    Options
	o       *obs.Obs
	rec     *tsdb.Recorder
	engine  *tsdb.Engine
	bundler *Bundler

	mu        sync.Mutex
	instances map[string]*instanceState
	lastTick  time.Time
	agg       expfmt.Snapshot // latest fleet aggregate (fleet.-prefixed)
}

// New builds a fleet service. The recorder and engine are created here;
// alert transitions log into opts.Obs and, when bundling is configured,
// trigger diagnostic capture.
func New(opts Options) *Service {
	o := opts.withDefaults()
	s := &Service{
		opts:      o,
		o:         o.Obs,
		rec:       tsdb.New(tsdb.Options{}),
		instances: make(map[string]*instanceState),
	}
	s.engine = tsdb.NewEngine(s.rec, o.Obs, o.Rules)
	if o.Bundle.Dir != "" {
		s.bundler = newBundler(o.Bundle, s)
		s.engine.Tap(func(tr tsdb.Transition) {
			if tr.To == tsdb.StateFiring {
				s.bundler.trigger(tr)
			}
		})
	}
	return s
}

// Recorder exposes the fleet-level recorder (the /fleet/timeseries
// backend).
func (s *Service) Recorder() *tsdb.Recorder { return s.rec }

// Engine exposes the fleet alert engine (the /fleet/alerts backend).
func (s *Service) Engine() *tsdb.Engine { return s.engine }

// Bundler exposes the diagnostic bundler, nil when bundling is disabled.
func (s *Service) Bundler() *Bundler { return s.bundler }

// Envelope is everything one instance reports in one tick: its whole
// registry (on the wire, the text exposition with exemplars as one JSON
// string — expfmt.Snapshot marshals itself that way), its full tenant
// sketch table (not a truncated top-K, so the head merges exact per-DN
// aggregates) and its newest continuous-profile summary. Absent parts leave
// the instance's earlier state as it was.
type Envelope struct {
	Instance string              `json:"instance"`
	Metrics  expfmt.Snapshot     `json:"metrics"`
	Tenants  []tenant.Stat       `json:"tenants,omitempty"`
	Profile  *obs.ProfileSummary `json:"profile,omitempty"`
}

// Ingest folds one envelope into the registry under one lock, so a restart
// (a changed start time) folds counters, histograms and the tenant table
// in the same critical section, before any of the new epoch's values land.
// addr is advisory (the push's remote address).
func (s *Service) Ingest(addr string, env Envelope, now time.Time) error {
	instance := env.Instance
	if instance == "" {
		return fmt.Errorf("fleet: ingest without instance name")
	}
	// Canonicalize into the wire-form namespace so in-process snapshots
	// (dotted names) and parsed pushes (underscored) land on the same
	// series. Copied, not mutated: the caller keeps its snapshot.
	metrics := make([]obs.Metric, len(env.Metrics.Metrics))
	for i, m := range env.Metrics.Metrics {
		m.Name = expfmt.CanonicalName(m.Name)
		metrics[i] = m
	}
	hists := make([]obs.HistogramSnapshot, len(env.Metrics.Histograms))
	for i, h := range env.Metrics.Histograms {
		h.Name = expfmt.CanonicalName(h.Name)
		hists[i] = h
	}

	var startTime int64
	for _, m := range metrics {
		if m.Name == startTimeGauge {
			startTime = m.Value
			break
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	inst, ok := s.instances[instance]
	if !ok {
		if len(s.instances) >= maxInstances {
			return fmt.Errorf("fleet: instance registry full (%d), rejecting %q", maxInstances, instance)
		}
		inst = &instanceState{
			name: instance, firstSeen: now,
			gauges:      make(map[string]int64),
			counterBase: make(map[string]int64),
			counterRaw:  make(map[string]int64),
			histBase:    make(map[string]obs.HistogramSnapshot),
			histRaw:     make(map[string]obs.HistogramSnapshot),
			tenantBase:  make(map[string]tenantCounters),
			tenantRaw:   make(map[string]tenantCounters),
		}
		s.instances[instance] = inst
		s.o.EventLog().Append("fleet.instance.joined", "instance", instance, "addr", addr)
	}
	if addr != "" {
		inst.addr = addr
	}

	// Restart detection: a changed start time is authoritative; a counter
	// running backwards catches exporters without process identity.
	restarted := startTime != 0 && inst.startTime != 0 && startTime != inst.startTime
	if !restarted {
		for _, m := range metrics {
			if m.Kind == "counter" && m.Value < inst.counterRaw[m.Name] {
				restarted = true
				break
			}
		}
	}
	if restarted {
		for name, v := range inst.counterRaw {
			inst.counterBase[name] += v
		}
		for name, h := range inst.histRaw {
			inst.histBase[name] = MergeHistograms(name, inst.histBase[name], h)
		}
		inst.counterRaw = make(map[string]int64)
		inst.histRaw = make(map[string]obs.HistogramSnapshot)
		inst.foldTenants()
		inst.restarts++
		s.o.EventLog().Append("fleet.instance.restarted", "instance", instance,
			"restarts", fmt.Sprintf("%d", inst.restarts))
	}
	if startTime != 0 {
		inst.startTime = startTime
	}

	for _, m := range metrics {
		switch m.Kind {
		case "counter":
			inst.counterRaw[m.Name] = m.Value
		case "gauge":
			inst.gauges[m.Name] = m.Value
		}
	}
	for _, h := range hists {
		inst.histRaw[h.Name] = h
	}
	inst.ingestTenants(env.Tenants)
	if env.Profile != nil {
		inst.profile = env.Profile
	}
	inst.lastSeen = now
	inst.stale = false
	inst.pushes++
	return nil
}

// effectiveCounter is the instance's restart-proof counter value.
func (i *instanceState) effectiveCounter(name string) int64 {
	return i.counterBase[name] + i.counterRaw[name]
}

// effectiveHist is the instance's restart-proof histogram: prior epochs
// folded into the base, merged with the current epoch's raw snapshot.
func (i *instanceState) effectiveHist(name string) obs.HistogramSnapshot {
	base, hasBase := i.histBase[name]
	raw, hasRaw := i.histRaw[name]
	switch {
	case hasBase && hasRaw:
		return MergeHistograms(name, base, raw)
	case hasBase:
		return base
	default:
		return raw
	}
}

// Instances returns the registry sorted by name, evaluated at the last
// Tick's staleness horizon.
func (s *Service) Instances() []Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Instance, 0, len(s.instances))
	for _, inst := range s.instances {
		out = append(out, Instance{
			Name: inst.name, Addr: inst.addr,
			Up: !inst.stale, Stale: inst.stale,
			FirstSeen: inst.firstSeen, LastSeen: inst.lastSeen,
			StartTime: inst.startTime, Restarts: inst.restarts,
			Pushes: inst.pushes, GoodputBps: inst.goodputRate,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Aggregate returns the latest fleet aggregate snapshot (fleet.-prefixed
// names), as computed by the last Tick.
func (s *Service) Aggregate() expfmt.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.agg
}

func histNames(inst *instanceState) map[string]bool {
	out := make(map[string]bool, len(inst.histBase)+len(inst.histRaw))
	for n := range inst.histBase {
		out[n] = true
	}
	for n := range inst.histRaw {
		out[n] = true
	}
	return out
}

// ExemplarTraceIDs collects the distinct exemplar trace ids present in
// the latest fleet aggregate, newest first — the links a firing alert
// (and its diagnostic bundle) hands to whoever stitches the instances'
// /debug/spans exports.
func (s *Service) ExemplarTraceIDs() []string {
	s.mu.Lock()
	agg := s.agg
	s.mu.Unlock()
	type ex struct {
		id string
		t  time.Time
	}
	var all []ex
	seen := make(map[string]bool)
	for _, h := range agg.Histograms {
		for _, e := range h.Exemplars {
			if e.TraceID != "" && !seen[e.TraceID] {
				seen[e.TraceID] = true
				all = append(all, ex{e.TraceID, e.Time})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].t.After(all[j].t) })
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.id
	}
	return ids
}

// Tick runs one deterministic aggregation pass at now: staleness
// evaluation, fleet merge, recorder sampling of the merged aggregate,
// derived goodput/outlier series, then an alert evaluation. The
// background loop calls it every second; tests call it directly with a
// synthetic clock.
func (s *Service) Tick(now time.Time) {
	s.mu.Lock()
	interval := now.Sub(s.lastTick)
	firstTick := s.lastTick.IsZero()
	s.lastTick = now

	// Staleness: quiet past the horizon. Stale counters stay in the fleet
	// sums (frozen, so they contribute zero rate); stale gauges drop out —
	// an instance that is gone holds no sessions.
	up, stale, restarts := 0, 0, 0
	for _, inst := range s.instances {
		inst.stale = now.Sub(inst.lastSeen) > s.opts.StaleAfter
		if inst.stale {
			stale++
		} else {
			up++
		}
		restarts += inst.restarts
	}

	// Merge: counters summed over every instance, gauges summed over live
	// ones (identity gauges excluded), histograms merged bucket-wise.
	counterSum := make(map[string]int64)
	gaugeSum := make(map[string]int64)
	histGroups := make(map[string][]obs.HistogramSnapshot)
	for _, inst := range s.instances {
		for name := range inst.counterBase {
			counterSum[name] += inst.counterBase[name]
		}
		for name, v := range inst.counterRaw {
			counterSum[name] += v
		}
		for name := range histNames(inst) {
			histGroups[name] = append(histGroups[name], inst.effectiveHist(name))
		}
		if !inst.stale {
			for name, v := range inst.gauges {
				if !identityGauges[name] {
					gaugeSum[name] += v
				}
			}
		}
	}

	var agg expfmt.Snapshot
	for name, v := range counterSum {
		agg.Metrics = append(agg.Metrics, obs.Metric{Name: "fleet." + name, Kind: "counter", Value: v})
	}
	for name, v := range gaugeSum {
		agg.Metrics = append(agg.Metrics, obs.Metric{Name: "fleet." + name, Kind: "gauge", Value: v})
	}
	for name, group := range histGroups {
		agg.Histograms = append(agg.Histograms, MergeHistograms("fleet."+name, group...))
	}
	sort.Slice(agg.Metrics, func(i, j int) bool { return agg.Metrics[i].Name < agg.Metrics[j].Name })
	sort.Slice(agg.Histograms, func(i, j int) bool { return agg.Histograms[i].Name < agg.Histograms[j].Name })
	s.agg = agg

	// Per-instance goodput rates (for the outlier series and /fleet/instances).
	var rates []float64
	var fleetGoodput float64
	for _, inst := range s.instances {
		var cur float64
		for _, c := range goodputCounters {
			cur += float64(inst.effectiveCounter(c))
		}
		if !firstTick && interval > 0 {
			inst.goodputRate = (cur - inst.goodputPrev) / interval.Seconds()
			if inst.goodputRate < 0 {
				inst.goodputRate = 0
			}
		}
		inst.goodputPrev = cur
		if !inst.stale {
			rates = append(rates, inst.goodputRate)
		}
		fleetGoodput += inst.goodputRate
	}
	s.mu.Unlock()

	// Recorder + derived series + alerts run outside the registry lock:
	// engine taps (bundle capture) may call back into Service getters.
	s.rec.SampleSnapshot(agg.Metrics, agg.Histograms, now)
	s.rec.Observe("fleet.instances.total", now, float64(up+stale))
	s.rec.Observe("fleet.instances.up", now, float64(up))
	s.rec.Observe("fleet.instances.stale", now, float64(stale))
	s.rec.Observe("fleet.instances.restarts", now, float64(restarts))
	s.rec.Observe("fleet.goodput.bytes_per_sec", now, fleetGoodput)
	s.rec.Observe("fleet.goodput.outlier_ratio", now, outlierRatio(rates))
	s.engine.Eval(now)
}

// outlierRatio measures how far the worst live instance's goodput falls
// below the fleet median: 1 − min/median, clamped to [0, 1]. Zero for
// fleets too small for a median to mean anything (<3 live instances) or
// with an idle median.
func outlierRatio(rates []float64) float64 {
	if len(rates) < 3 {
		return 0
	}
	sorted := append([]float64(nil), rates...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	if median <= 0 {
		return 0
	}
	r := 1 - sorted[0]/median
	if r < 0 {
		return 0
	}
	if r > 1 {
		return 1
	}
	return r
}

// Start launches the background loop: Tick every second, the pushers'
// cadence. The returned stop halts it (obs.Every's contract).
func (s *Service) Start() (stop func()) {
	return obs.Every(pushInterval, func(time.Time) { s.Tick(s.opts.Now()) })
}
