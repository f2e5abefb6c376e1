package tsdb

import (
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
)

// step advances the scenario one virtual second: observe v on the rule's
// series, then evaluate.
func stepEval(e *Engine, r *Recorder, series string, at time.Time, v float64) {
	r.observe(series, at, v)
	e.Eval(at)
}

// eventTypes lists the types of the events in o's log, oldest first: the
// alert transitions the engine has appended.
func eventTypes(o *obs.Obs) []string {
	var types []string
	for _, ev := range o.Events() {
		types = append(types, ev.Type)
	}
	return types
}

func stateOf(t *testing.T, e *Engine, rule string) State {
	t.Helper()
	for _, a := range e.Alerts() {
		if a.Rule.Name == rule {
			return a.State
		}
	}
	t.Fatalf("rule %q not found", rule)
	return ""
}

func TestThresholdHysteresisAndFlapSuppression(t *testing.T) {
	rec := New(Options{})
	o := obs.Nop()
	rule := Rule{Name: "hot", Series: "temp", Kind: KindThreshold,
		Op: OpGreater, Value: 10, For: 3 * time.Second}
	e := NewEngine(rec, o, []Rule{rule})

	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

	// A 2s blip shorter than For must never fire (pending → inactive).
	stepEval(e, rec, "temp", at(0), 50)
	stepEval(e, rec, "temp", at(1), 50)
	stepEval(e, rec, "temp", at(2), 5)
	if got := stateOf(t, e, "hot"); got != StateInactive {
		t.Fatalf("after short blip: state = %s, want inactive", got)
	}
	if types := eventTypes(o); len(types) != 0 {
		t.Fatalf("short blip produced transitions: %v", types)
	}

	// Held for For: pending at t=3, fires at t=6 (3s held).
	for sec := 3; sec <= 6; sec++ {
		stepEval(e, rec, "temp", at(sec), 50)
	}
	if got := stateOf(t, e, "hot"); got != StateFiring {
		t.Fatalf("after held breach: state = %s, want firing", got)
	}
	if types := eventTypes(o); len(types) != 1 || types[0] != "alert.firing" {
		t.Fatalf("transitions = %v, want one firing", types)
	}

	// Flapping while firing: brief clears interleaved with re-breaches
	// reset the clear streak — the alert must stay firing (no resolve
	// storm).
	stepEval(e, rec, "temp", at(7), 5)
	stepEval(e, rec, "temp", at(8), 50) // clear streak resets here
	stepEval(e, rec, "temp", at(9), 5)
	stepEval(e, rec, "temp", at(10), 50)
	if got := stateOf(t, e, "hot"); got != StateFiring {
		t.Fatalf("during flapping: state = %s, want still firing", got)
	}
	if types := eventTypes(o); len(types) != 1 {
		t.Fatalf("flapping produced extra transitions: %v", types)
	}

	// Clear held for For: resolves at t=14 (clear since t=11).
	for sec := 11; sec <= 14; sec++ {
		stepEval(e, rec, "temp", at(sec), 5)
	}
	if got := stateOf(t, e, "hot"); got != StateInactive {
		t.Fatalf("after held clear: state = %s, want inactive", got)
	}
	if types := eventTypes(o); len(types) != 2 || types[0] != "alert.firing" || types[1] != "alert.resolved" {
		t.Fatalf("event types = %v, want [alert.firing alert.resolved]", types)
	}

	// Metrics mirror the lifecycle.
	if v := o.Registry().Counter("obs.alerts_fired_total").Value(); v != 1 {
		t.Errorf("obs.alerts_fired_total = %d, want 1", v)
	}
	if v := o.Registry().Gauge("obs.alerts_active").Value(); v != 0 {
		t.Errorf("obs.alerts_active = %d, want 0 after resolve", v)
	}
}

func TestForZeroFiresImmediately(t *testing.T) {
	rec := New(Options{})
	e := NewEngine(rec, obs.Nop(), []Rule{{
		Name: "instant", Series: "x", Kind: KindThreshold, Op: OpGreater, Value: 1,
	}})
	stepEval(e, rec, "x", t0, 5)
	if got := stateOf(t, e, "instant"); got != StateFiring {
		t.Fatalf("For=0 state = %s, want firing on first tick", got)
	}
}

func TestRateOfChangeRule(t *testing.T) {
	rec := New(Options{})
	e := NewEngine(rec, obs.Nop(), []Rule{{
		Name: "collapse", Series: "bytes.rate", Kind: KindRateOfChange,
		Op: OpLess, Value: -100, Window: 10 * time.Second,
	}})
	// Rising series: slope positive, no fire.
	stepEval(e, rec, "bytes.rate", t0, 1000)
	stepEval(e, rec, "bytes.rate", t0.Add(time.Second), 2000)
	if got := stateOf(t, e, "collapse"); got != StateInactive {
		t.Fatalf("rising slope state = %s, want inactive", got)
	}
	// Collapse: 2000 → 0 over 2s is -1000/s < -100.
	stepEval(e, rec, "bytes.rate", t0.Add(2*time.Second), 500)
	stepEval(e, rec, "bytes.rate", t0.Add(3*time.Second), 0)
	if got := stateOf(t, e, "collapse"); got != StateFiring {
		t.Fatalf("collapsing slope state = %s, want firing", got)
	}
}

// TestQueueWaitBurnRateFiresAndResolves is the fault-injection test the
// issue requires: drive the real transfer.queue_wait_seconds histogram
// through the sampler the way a saturated admission queue would, and
// assert the stock rule fires — visible in the event log, /alerts
// (Active), and obs.alerts_fired_total — then resolves once the
// starvation stops.
func TestQueueWaitBurnRateFiresAndResolves(t *testing.T) {
	rec := New(Options{})
	o := obs.Nop()
	e := NewEngine(rec, o, DefaultRules())
	const ruleName = "transfer-queue-wait-p99-burn"

	reg := obs.NewRegistry()
	h := reg.Histogram("transfer.queue_wait_seconds",
		[]float64{0.001, 0.01, 0.1, 0.5, 1, 5, 30})

	at := func(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }
	tick := func(sec int) {
		rec.SampleRegistry(reg, at(sec))
		e.Eval(at(sec))
	}

	tick(0) // baseline sampling pass

	// Fault injection: admission-control starvation — every second a batch
	// of transfers reports multi-second queue waits, pushing the windowed
	// p99 far above the 500ms objective.
	fired := false
	for sec := 1; sec <= 10; sec++ {
		for i := 0; i < 8; i++ {
			h.Observe(2.0) // 2s queue wait
		}
		tick(sec)
		if stateOf(t, e, ruleName) == StateFiring {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatalf("queue-wait burn-rate rule never fired; alerts: %+v", e.Alerts())
	}
	if active := e.Active(); len(active) != 1 || active[0].Rule.Name != ruleName {
		t.Fatalf("Active() = %+v, want the queue-wait rule firing", active)
	}
	if v := o.Registry().Counter("obs.alerts_fired_total").Value(); v != 1 {
		t.Fatalf("obs.alerts_fired_total = %d, want 1", v)
	}
	if v := o.Registry().Gauge("obs.alerts_active").Value(); v != 1 {
		t.Fatalf("obs.alerts_active = %d, want 1", v)
	}
	foundFiring := false
	for _, ev := range o.Events() {
		if ev.Type == "alert.firing" && ev.Fields["alert"] == ruleName {
			foundFiring = true
			if ev.Fields["series"] != "transfer.queue_wait_seconds.p99" {
				t.Errorf("firing event series = %q", ev.Fields["series"])
			}
		}
	}
	if !foundFiring {
		t.Fatalf("no alert.firing event in the event log: %v", o.Events())
	}

	// Starvation ends: no new observations, so the windowed p99 drops to
	// the 0 sentinel each pass, the 15s window average burns down below
	// 0.5, and after the 2s clear hysteresis the alert resolves.
	resolved := false
	for sec := 11; sec <= 60; sec++ {
		tick(sec)
		if stateOf(t, e, ruleName) == StateInactive {
			resolved = true
			break
		}
	}
	if !resolved {
		t.Fatalf("alert never resolved after starvation stopped; alerts: %+v", e.Alerts())
	}
	if v := o.Registry().Gauge("obs.alerts_active").Value(); v != 0 {
		t.Fatalf("obs.alerts_active = %d after resolve, want 0", v)
	}
	foundResolved := false
	for _, ev := range o.Events() {
		if ev.Type == "alert.resolved" && ev.Fields["alert"] == ruleName {
			foundResolved = true
		}
	}
	if !foundResolved {
		t.Fatal("no alert.resolved event in the event log")
	}
	// Firing counter is monotone: resolve must not decrement it.
	if v := o.Registry().Counter("obs.alerts_fired_total").Value(); v != 1 {
		t.Fatalf("obs.alerts_fired_total = %d after resolve, want 1", v)
	}
}

func TestNilEngineAndRecorderSafe(t *testing.T) {
	var e *Engine
	e.Eval(t0) // must not panic
	if e.Active() != nil || e.Alerts() != nil {
		t.Fatal("nil engine returned alerts")
	}
	e2 := NewEngine(nil, nil, []Rule{{Name: "r", Series: "s", Kind: KindThreshold, Op: OpGreater}})
	e2.Eval(t0) // nil recorder and nil obs: evaluates to not-ok, no panic
	if got := stateOf(t, e2, "r"); got != StateInactive {
		t.Fatalf("disconnected engine state = %s, want inactive", got)
	}
}
