package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/expfmt"
	"gridftp.dev/instant/internal/obs/tenant"
)

// This file is the exporter side of federation: daemons push their own
// envelope to a fleet head (Push/StartPusher) — the one way in, so a
// process behind NAT or a short-lived one reports like any other.

var pushClient = &http.Client{Timeout: 10 * time.Second}

const (
	// maxEnvelope bounds one push body.
	maxEnvelope = 16 << 20
	// pushInterval is the pusher's cadence and the head's tick.
	pushInterval = time.Second
)

// Collect gathers a process's envelope: o's registry, acct's full sketch
// table (nil reports none) and, when o carries a continuous profiler with
// a finished window, its newest summary.
func Collect(instance string, o *obs.Obs, acct *tenant.Accountant) Envelope {
	env := Envelope{
		Instance: instance,
		Metrics:  expfmt.SnapshotRegistry(o.Registry()),
		Tenants:  acct.Table(),
	}
	if sum, ok := o.Profiler().ProfileSummary(); ok {
		env.Profile = &sum
	}
	return env
}

// Push POSTs env once to url — the head's /v1/metrics, or whatever a
// reverse proxy in front of it calls that route: the URL is used exactly
// as configured, query string and all.
func Push(url string, env Envelope) error {
	body, err := json.Marshal(env)
	if err != nil {
		return err
	}
	resp, err := pushClient.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("fleet: push to %s: %w", url, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode >= 300 {
		return fmt.Errorf("fleet: push to %s: %s", url, resp.Status)
	}
	return nil
}

// StartPusher pushes the process's envelope to url every second until the
// returned stop function is called. Push failures are logged at debug (the
// head may simply not be up yet) and retried on the next tick; a final
// push runs on stop so short-lived processes still report their last
// state.
func StartPusher(url, instance string, o *obs.Obs, acct *tenant.Accountant) (stop func()) {
	push := func() {
		if err := Push(url, Collect(instance, o, acct)); err != nil {
			o.Logger().Debug("fleet: push failed", "url", url, "err", err.Error())
		}
	}
	stopLoop := obs.Every(pushInterval, func(time.Time) { push() })
	var once sync.Once
	return func() {
		stopLoop()
		once.Do(push)
	}
}
