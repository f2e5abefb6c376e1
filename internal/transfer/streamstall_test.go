package transfer

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/admin"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/streamstats"
	"gridftp.dev/instant/internal/obs/tsdb"
)

// TestStreamStallWatchdogRecovery is the data-path X-ray end-to-end: a
// transfer's bandwidth collapses mid-flight (without the link dying, so
// nothing errors on its own — the classic silent stall), the stall
// watchdog notices the wire going quiet and aborts the attempt, the
// stream-stall alert fires off the gridftp.streams.stalled gauge as the
// recorder samples it, the scheduler retries the file from its checkpoint
// once the path heals, and the whole episode is queryable afterwards
// through the admin plane's /alerts, /debug/timeseries and /debug/streams
// endpoints.
func TestStreamStallWatchdogRecovery(t *testing.T) {
	o := obs.New(io.Discard, slog.LevelInfo)
	// Sample well under the poller interval so the stalled>0 gauge cannot
	// slip between samples; the short raw retention keeps the rings small.
	rec := tsdb.New(tsdb.Options{Step: 5 * time.Millisecond, Retention: 5 * time.Second})

	// The stock stream-stall rule with For collapsed to zero so the test
	// doesn't have to hold the stall for a wall-clock second.
	rules := []tsdb.Rule{{
		Name: "stream-stall", Series: streamstats.StalledSeries,
		Kind: tsdb.KindThreshold, Op: tsdb.OpGreater, Value: 0,
		Severity: "page",
	}}
	eng := tsdb.NewEngine(rec, o, rules)

	streams := streamstats.New(streamstats.Options{
		Obs:      o,
		Interval: 20 * time.Millisecond,
		Stall:    120 * time.Millisecond,
	})
	defer streams.Start()()

	adm := admin.New(o, admin.Planes{Recorder: rec, Engine: eng, Streams: streams})
	defer adm.Start()() // the registry sampler, then alert evaluation
	admAddr, err := adm.ListenAndServe("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer adm.Close()

	// RetryDelay is deliberately longer than the heal-watcher's reaction
	// time below: the retry must dial its fresh data channels on the
	// healed link, not while the path is still collapsed.
	w := buildWorld(t, Config{
		RetryLimit: 8,
		RetryDelay: 250 * time.Millisecond,
		Obs:        o,
		Streams:    streams,
	}, false)
	activateBoth(t, w)
	payload := pattern(4 << 20)
	w.putSrc(t, "/stall.bin", payload)

	// A capacious but finite link; the trickle of loss keeps the wire
	// counters honest (retransmits > 0 in the per-attempt evidence).
	fast := netsim.LinkParams{
		Bandwidth: 20e6, RTT: 2 * time.Millisecond,
		Loss: 0.002, StreamWindow: 1 << 22,
	}
	w.nw.SetLink("siteA", "siteB", fast)

	task, err := w.svc.Submit("alice", "siteA", "/stall.bin", "siteB", "/stall.bin")
	if err != nil {
		t.Fatal(err)
	}

	// Mid-flight, collapse the path to a few hundred bytes per second:
	// connections stay up, writes just stop making progress. Only the
	// watchdog can turn this into a retry.
	go func() {
		time.Sleep(70 * time.Millisecond)
		w.nw.SetLink("siteA", "siteB", netsim.LinkParams{
			Bandwidth: 200, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22,
		})
		// Heal the path as soon as the watchdog has tripped so the
		// checkpoint retry runs at full speed.
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if countEvents(o, "stream.stalled") > 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		w.nw.SetLink("siteA", "siteB", fast)
	}()

	done, err := w.svc.Wait(task.ID, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskSucceeded {
		t.Fatalf("task %s: %s (%s)", done.ID, done.Status, done.Error)
	}
	if done.Attempts < 2 {
		t.Fatalf("stall did not trigger a retry (attempts=%d)", done.Attempts)
	}
	if !bytes.Equal(w.readDst(t, "/stall.bin"), payload) {
		t.Fatal("content mismatch after stall recovery")
	}

	// The watchdog's paper trail: a stall, a paired recovery, and the
	// scheduler's per-attempt wire-evidence record.
	if n := countEvents(o, "stream.stalled"); n == 0 {
		t.Fatal("no stream.stalled event recorded")
	}
	if n := countEvents(o, "stream.recovered"); n == 0 {
		t.Fatal("no stream.recovered event recorded")
	}
	if n := countEvents(o, "transfer.wire"); n == 0 {
		t.Fatal("no transfer.wire evidence event recorded")
	}

	// The alert must have gone through a full fire/resolve cycle, which
	// the engine writes to the event log. The firing edge lands while the
	// stall is live; the resolve edge needs one more poller pass after the
	// aborted transfers drain, so give the background evaluator a moment.
	waitFor(t, 5*time.Second, "stream-stall alert fire+resolve", func() bool {
		var fired, resolved bool
		for _, ev := range o.Events() {
			if ev.Fields["alert"] != "stream-stall" {
				continue
			}
			fired = fired || ev.Type == "alert.firing"
			resolved = resolved || (fired && ev.Type == "alert.resolved")
		}
		return fired && resolved
	})

	// The stall must have been the watchdog's doing, not a random error:
	// at least one retained transfer is marked stall-aborted.
	var aborted bool
	for _, th := range streams.Health() {
		if th.Aborted {
			aborted = true
		}
	}
	if !aborted {
		t.Fatal("no transfer marked stall-aborted in the health table")
	}

	// And the whole episode is queryable over the admin plane.
	base := "http://" + admAddr.String()
	var alerts struct {
		Alerts []tsdb.Alert `json:"alerts"`
	}
	if err := json.Unmarshal([]byte(httpGetBody(t, base+"/alerts")), &alerts); err != nil {
		t.Fatal(err)
	}
	if len(alerts.Alerts) != 1 || alerts.Alerts[0].Fires == 0 {
		t.Fatalf("/alerts does not count the stream-stall firing: %+v", alerts.Alerts)
	}
	series := httpGetBody(t, base+"/debug/timeseries?series="+streamstats.StalledSeries)
	if !strings.Contains(series, `"name": "`+streamstats.StalledSeries+`"`) {
		t.Fatalf("timeseries dump missing %s:\n%s", streamstats.StalledSeries, series)
	}
	health := httpGetBody(t, base+"/debug/streams")
	if !strings.Contains(strings.ReplaceAll(health, " ", ""), `"stall_aborted":true`) {
		t.Fatalf("/debug/streams does not show the stall-aborted transfer:\n%s", health)
	}
	if !strings.Contains(health, task.ID) {
		t.Fatalf("/debug/streams does not label transfers with task %s", task.ID)
	}
	table := httpGetBody(t, base+"/debug/streams?format=text")
	if !strings.Contains(table, "retrans") || !strings.Contains(table, "stall-aborted") {
		t.Fatalf("text health table missing expected columns/state:\n%s", table)
	}
	t.Logf("attempts=%d moved=%d stalls=%d", done.Attempts, done.BytesTransferred,
		countEvents(o, "stream.stalled"))
}

func countEvents(o *obs.Obs, typ string) int {
	n := 0
	for _, e := range o.Events() {
		if e.Type == typ {
			n++
		}
	}
	return n
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func httpGetBody(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, b)
	}
	return string(b)
}
