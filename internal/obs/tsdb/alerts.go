package tsdb

import (
	"fmt"
	"sync"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/eventlog"
)

// This file is the SLO alert engine over the recorder: declarative rules
// evaluated on every sampling tick, with for-duration hysteresis in both
// directions (a rule must hold for For before firing and must stay clear
// for For before resolving — flap suppression). Transitions land in the
// event log (alert.firing / alert.resolved) and on the obs.alerts_active /
// obs.alerts_fired_total metrics.

// Kind selects how a rule turns series points into a test value.
type Kind string

const (
	// KindThreshold compares the series' latest point.
	KindThreshold Kind = "threshold"
	// KindRateOfChange compares the series' slope (units/sec) over the
	// rule window.
	KindRateOfChange Kind = "rate-of-change"
	// KindBurnRate compares the series' average over the rule window —
	// applied to a windowed quantile series ("….p99", maintained by
	// SampleRegistry), this is a quantile burn-rate rule: it fires while
	// the window keeps burning above the objective and resolves once the
	// windowed quantile falls back (an empty window records 0).
	KindBurnRate Kind = "burn-rate"
)

// Op is a comparison direction.
type Op string

// Comparison directions.
const (
	OpGreater Op = ">"
	OpLess    Op = "<"
)

// Rule is one declarative alert rule.
type Rule struct {
	// Name identifies the rule in events, metrics, and /alerts.
	Name string `json:"name"`
	// Series is the recorder series the rule watches (for registry-fed
	// series: "<gauge name>", "<counter name>.rate", "<histogram>.p99").
	Series string `json:"series"`
	Kind   Kind   `json:"kind"`
	Op     Op     `json:"op"`
	// Value is the comparison threshold.
	Value float64 `json:"value"`
	// For is the hysteresis duration: the condition must hold this long
	// before the alert fires, and must stay clear this long before a
	// firing alert resolves. Zero fires/resolves on the first tick.
	For time.Duration `json:"for_ns"`
	// Window is the lookback for rate-of-change and burn-rate rules
	// (default 60s).
	Window time.Duration `json:"window_ns,omitempty"`
	// Severity is free-form operator routing ("page", "warn", "info").
	Severity string `json:"severity,omitempty"`
}

// State is an alert's lifecycle state.
type State string

// Alert states.
const (
	StateInactive State = "inactive"
	StatePending  State = "pending"
	StateFiring   State = "firing"
)

// Alert is the live state of one rule.
type Alert struct {
	Rule  Rule  `json:"rule"`
	State State `json:"state"`
	// Value is the most recently evaluated test value.
	Value float64 `json:"value"`
	// Since is when the alert entered its current state.
	Since time.Time `json:"since"`
	// Fires counts pending→firing transitions over the engine's life.
	Fires int `json:"fires"`
}

// alertState is the engine's mutable per-rule record.
type alertState struct {
	rule       Rule
	state      State
	since      time.Time
	value      float64
	fires      int
	clearSince time.Time // while firing: when the condition last went clear
}

// Engine evaluates rules against a recorder.
type Engine struct {
	rec *Recorder
	o   *obs.Obs

	mu     sync.Mutex
	alerts []*alertState
}

// NewEngine builds an engine over rec reporting into o (both may be nil
// for a disconnected engine, which then never fires).
func NewEngine(rec *Recorder, o *obs.Obs, rules []Rule) *Engine {
	e := &Engine{rec: rec, o: o}
	for _, r := range rules {
		if r.Window <= 0 {
			r.Window = time.Minute
		}
		e.alerts = append(e.alerts, &alertState{rule: r, state: StateInactive})
	}
	return e
}

// DefaultRules is the rule set the daemons install: SLOs over the series
// the stack already exports. Thresholds suit the simulated-WAN scale the
// binaries run at; operators replace them the way they would a
// Prometheus rule file.
func DefaultRules() []Rule {
	return []Rule{
		{
			// The scheduler's admission queue: if the p99 wait burns above
			// 500ms, MaxActiveTransfers is saturated and tasks are starving.
			Name: "transfer-queue-wait-p99-burn", Series: "transfer.queue_wait_seconds.p99",
			Kind: KindBurnRate, Op: OpGreater, Value: 0.5,
			For: 2 * time.Second, Window: 15 * time.Second, Severity: "page",
		},
		{
			// Control-channel health: sustained slow commands mean the
			// endpoint (or the path to it) is degrading.
			Name: "command-latency-p99", Series: "gridftp.server.command_seconds.p99",
			Kind: KindThreshold, Op: OpGreater, Value: 2.0,
			For: 5 * time.Second, Severity: "warn",
		},
		{
			// A retry storm: attempts failing faster than one per two
			// seconds across the service.
			Name: "transfer-retry-storm", Series: "transfer.attempt_failures.rate",
			Kind: KindThreshold, Op: OpGreater, Value: 0.5,
			For: 3 * time.Second, Severity: "warn",
		},
		{
			// Mid-flight throughput collapse: aggregate transfer progress
			// dropping fast while transfers are supposed to be active.
			Name: "transfer-throughput-collapse", Series: "transfer.bytes_total.rate",
			Kind: KindRateOfChange, Op: OpLess, Value: -1 << 20,
			For: 3 * time.Second, Window: 10 * time.Second, Severity: "info",
		},
		{
			// The stream-stall watchdog (internal/obs/streamstats): one or
			// more data streams past the no-progress window. The gauge is
			// set by the streamstats poller, so it reflects wire-level
			// reality, not queue state — a firing alert means bytes stopped
			// moving on a live transfer.
			Name: "stream-stall", Series: "gridftp.streams.stalled",
			Kind: KindThreshold, Op: OpGreater, Value: 0,
			For: time.Second, Severity: "page",
		},
		{
			// Inter-stream imbalance: the worst max/min per-stream EWMA
			// throughput ratio across active transfers, as a percentage
			// (400 is 4x). Parallel streams should split a path roughly
			// evenly; a sustained 4x skew means one stream is starved (lossy
			// path, unfair shaping) and the transfer is running at a
			// fraction of its negotiated parallelism.
			Name: "stream-imbalance", Series: "gridftp.streams.imbalance_pct",
			Kind: KindThreshold, Op: OpGreater, Value: 400,
			For: 5 * time.Second, Severity: "warn",
		},
	}
}

// Alerts returns the live state of every rule.
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, len(e.alerts))
	for i, a := range e.alerts {
		out[i] = Alert{Rule: a.rule, State: a.state, Value: a.value, Since: a.since, Fires: a.fires}
	}
	return out
}

// Active returns the alerts currently firing.
func (e *Engine) Active() []Alert {
	var out []Alert
	for _, a := range e.Alerts() {
		if a.State == StateFiring {
			out = append(out, a)
		}
	}
	return out
}

// Eval runs one evaluation pass at the given time. It is driven by the
// recorder's sampling loop in production and called directly with
// synthetic clocks in tests, which is what makes hysteresis testable
// without sleeping.
func (e *Engine) Eval(now time.Time) {
	if e == nil {
		return
	}
	// fired are the rules that changed to or from firing on this pass,
	// with the value that moved them.
	type transition struct {
		rule   Rule
		value  float64
		firing bool
	}
	var fired []transition
	e.mu.Lock()
	for _, a := range e.alerts {
		value, ok := e.measure(a.rule, now)
		a.value = value
		condition := ok && compare(value, a.rule.Op, a.rule.Value)
		switch a.state {
		case StateInactive:
			if condition {
				a.state, a.since = StatePending, now
			}
		case StatePending:
			if !condition {
				a.state, a.since = StateInactive, now
			}
		case StateFiring:
			if condition {
				a.clearSince = time.Time{} // flap: the clear streak resets
			} else {
				if a.clearSince.IsZero() {
					a.clearSince = now
				}
				if now.Sub(a.clearSince) >= a.rule.For {
					a.state, a.since, a.clearSince = StateInactive, now, time.Time{}
					fired = append(fired, transition{a.rule, value, false})
				}
			}
		}
		// Promote in the same pass so For == 0 fires immediately.
		if a.state == StatePending && condition && now.Sub(a.since) >= a.rule.For {
			a.state, a.since, a.clearSince = StateFiring, now, time.Time{}
			a.fires++
			fired = append(fired, transition{a.rule, value, true})
		}
	}
	active := 0
	for _, a := range e.alerts {
		if a.state == StateFiring {
			active++
		}
	}
	e.mu.Unlock()

	reg := e.o.Registry()
	reg.Gauge("obs.alerts_active").Set(int64(active))
	for _, tr := range fired {
		typ := eventlog.AlertResolved
		if tr.firing {
			typ = eventlog.AlertFiring
			reg.Counter("obs.alerts_fired_total").Inc()
		}
		e.o.EventLog().Append(typ, "component", "tsdb",
			"alert", tr.rule.Name, "series", tr.rule.Series, "severity", tr.rule.Severity,
			"value", fmt.Sprintf("%g", tr.value))
	}
}

// measure turns a rule's series into its test value at now; ok is false
// when the series has no usable points yet.
func (e *Engine) measure(r Rule, now time.Time) (float64, bool) {
	if e.rec == nil {
		return 0, false
	}
	switch r.Kind {
	case KindRateOfChange:
		pts := e.rec.Query(r.Series, now.Add(-r.Window), 0)
		if len(pts) < 2 {
			return 0, false
		}
		first, last := pts[0], pts[len(pts)-1]
		dt := last.T.Sub(first.T).Seconds()
		if dt <= 0 {
			return 0, false
		}
		return (last.V - first.V) / dt, true
	case KindBurnRate:
		pts := e.rec.Query(r.Series, now.Add(-r.Window), 0)
		if len(pts) == 0 {
			return 0, false
		}
		sum := 0.0
		for _, p := range pts {
			sum += p.V
		}
		return sum / float64(len(pts)), true
	default: // KindThreshold
		p, ok := e.rec.Latest(r.Series)
		if !ok {
			return 0, false
		}
		return p.V, true
	}
}

func compare(v float64, op Op, threshold float64) bool {
	if op == OpLess {
		return v < threshold
	}
	return v > threshold
}
