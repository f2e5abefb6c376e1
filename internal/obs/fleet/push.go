package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/expfmt"
	"gridftp.dev/instant/internal/obs/tenant"
)

// This file is the exporter side of federation: daemons push their own
// registry to a fleet head (Push/StartPusher), and the head pulls
// configured /metrics URLs (scrapeAll) — both land in Ingest, so a fleet
// can mix push-only processes behind NAT with scrapable long-lived ones.

var pushClient = &http.Client{Timeout: 10 * time.Second}

// Push exports reg once to a fleet head's POST /v1/metrics under the
// given instance name.
func Push(url, instance string, reg *obs.Registry) error {
	var body bytes.Buffer
	if err := expfmt.WriteText(&body, reg); err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url, &body)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", expfmt.TextContentType)
	req.Header.Set("X-Fleet-Instance", instance)
	resp, err := pushClient.Do(req)
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

// PushTenants exports acct's full sketch table once to a fleet head's
// POST /v1/tenants under the given instance name. The full table (not
// a truncated top-K) ships so the head can merge exact per-DN
// aggregates; a nil or empty accountant pushes nothing.
func PushTenants(url, instance string, acct *tenant.Accountant) error {
	table := acct.Table()
	if len(table) == 0 {
		return nil
	}
	body, err := json.Marshal(table)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Fleet-Instance", instance)
	resp, err := pushClient.Do(req)
	if err != nil {
		return fmt.Errorf("fleet: tenant push to %s: %w", url, err)
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode >= 300 {
		return fmt.Errorf("fleet: tenant push to %s: %s", url, resp.Status)
	}
	return nil
}

// StartPusher pushes o's registry to url every interval until the
// returned stop function is called. When o carries a continuous
// profiler, its newest summary rides along to the sibling /v1/profile
// endpoint on every tick; when acct is non-nil, its tenant table rides
// along to /v1/tenants the same way. Push failures are logged at debug
// (the head may simply not be up yet) and retried on the next tick; a
// final push runs on stop so short-lived processes still report their
// last state.
func StartPusher(url, instance string, o *obs.Obs, acct *tenant.Accountant, interval time.Duration) (stop func()) {
	if interval <= 0 {
		interval = time.Second
	}
	profileURL := profilePushURL(url)
	tenantURL := tenantPushURL(url)
	pushAll := func() {
		if err := Push(url, instance, o.Registry()); err != nil {
			o.Logger().Debug("fleet: push failed", "url", url, "err", err.Error())
		}
		if sum, ok := o.Profiler().ProfileSummary(); ok {
			if err := PushProfile(profileURL, instance, sum); err != nil {
				o.Logger().Debug("fleet: profile push failed", "url", profileURL, "err", err.Error())
			}
		}
		if acct != nil {
			if err := PushTenants(tenantURL, instance, acct); err != nil {
				o.Logger().Debug("fleet: tenant push failed", "url", tenantURL, "err", err.Error())
			}
		}
	}
	stopLoop := obs.Every(interval, func(time.Time) { pushAll() })
	var once sync.Once
	return func() {
		stopLoop()
		once.Do(pushAll)
	}
}

// profilePushURL derives the /v1/profile ingest URL from the configured
// /v1/metrics push URL (unrecognized shapes just get /v1/profile
// appended to the host part untouched — the head 404s harmlessly).
func profilePushURL(metricsURL string) string {
	if strings.HasSuffix(metricsURL, "/v1/metrics") {
		return strings.TrimSuffix(metricsURL, "/v1/metrics") + "/v1/profile"
	}
	return metricsURL
}

// tenantPushURL derives the /v1/tenants ingest URL the same way.
func tenantPushURL(metricsURL string) string {
	if strings.HasSuffix(metricsURL, "/v1/metrics") {
		return strings.TrimSuffix(metricsURL, "/v1/metrics") + "/v1/tenants"
	}
	return metricsURL
}

// scrapeAll pulls every configured scrape target once, concurrently, and
// ingests what parses. A failed or unparsable scrape leaves the target's
// lastSeen untouched, which is exactly what drives it stale.
func (s *Service) scrapeAll(now time.Time) {
	s.mu.Lock()
	targets := make(map[string]string, len(s.scrapes))
	for name, url := range s.scrapes {
		targets[name] = url
	}
	s.mu.Unlock()
	if len(targets) == 0 {
		return
	}
	var wg sync.WaitGroup
	for name, url := range targets {
		wg.Add(1)
		go func(name, url string) {
			defer wg.Done()
			resp, err := pushClient.Get(url)
			if err != nil {
				s.o.Logger().Debug("fleet: scrape failed", "instance", name, "err", err.Error())
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode >= 300 {
				s.o.Logger().Debug("fleet: scrape failed", "instance", name, "status", resp.Status)
				return
			}
			snap, err := expfmt.ParseTextSnapshot(io.LimitReader(resp.Body, 16<<20))
			if err != nil {
				s.o.Logger().Debug("fleet: scrape unparsable", "instance", name, "err", err.Error())
				return
			}
			s.Ingest(name, url, snap, now)
		}(name, url)
	}
	wg.Wait()
}
