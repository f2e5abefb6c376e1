// Package usagestats implements the opt-in usage reporting stream behind
// the paper's Figure 1 ("more than 10 million transfers totaling
// approximately half a petabyte of data every day", aggregated from
// servers that choose to enable reporting). Servers post per-transfer
// records to a Collector; the aggregator reduces them to per-day series of
// transfer counts and bytes moved, which is exactly the chart Fig 1 plots.
package usagestats

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"time"

	"gridftp.dev/instant/internal/obs"
)

// TransferRecord is one completed transfer as reported by a server.
type TransferRecord struct {
	Endpoint string
	User     string
	Op       string // RETR or STOR
	Path     string
	Bytes    int64
	Duration time.Duration
	When     time.Time
}

// Sink receives per-transfer usage reports. Collector is the canonical
// aggregating sink; MetricsSink bridges records into an obs metrics
// registry, and MultiSink fans one report out to several sinks — which is
// how a live GridFTP server feeds both the fleet collector and its own
// metrics registry from a single Report call.
type Sink interface {
	Report(TransferRecord)
}

// MultiSink returns a sink that forwards each record to every non-nil
// sink in order. It returns nil when no usable sinks are given, so the
// result can be assigned directly to an optional config field. Typed nils
// (a nil *Collector stored in a Sink variable) are dropped too, which
// makes MultiSink(s) the canonical way to normalize an optional sink.
func MultiSink(sinks ...Sink) Sink {
	var live []Sink
	for _, s := range sinks {
		if !isNilSink(s) {
			live = append(live, s)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiSink(live)
}

type multiSink []Sink

func (m multiSink) Report(r TransferRecord) {
	for _, s := range m {
		s.Report(r)
	}
}

// isNilSink reports whether s is nil or an interface wrapping a nil
// pointer — calling Report on either would panic.
func isNilSink(s Sink) bool {
	if s == nil {
		return true
	}
	v := reflect.ValueOf(s)
	switch v.Kind() {
	case reflect.Ptr, reflect.Map, reflect.Func, reflect.Chan, reflect.Slice:
		return v.IsNil()
	}
	return false
}

// MetricsSink adapts an obs metrics registry into a Sink: each record
// bumps fleet-wide transfer/byte counters, a per-endpoint counter, and a
// transfer-duration histogram.
func MetricsSink(reg *obs.Registry) Sink {
	if reg == nil {
		return nil
	}
	return &metricsSink{reg: reg}
}

type metricsSink struct {
	reg *obs.Registry
}

func (m *metricsSink) Report(r TransferRecord) {
	m.reg.Counter("usage.transfers_total").Inc()
	m.reg.Counter("usage.bytes_total").Add(r.Bytes)
	if r.Endpoint != "" {
		m.reg.Counter(obs.Name("usage.endpoint.transfers", r.Endpoint)).Inc()
		m.reg.Counter(obs.Name("usage.endpoint.bytes", r.Endpoint)).Add(r.Bytes)
	}
	m.reg.Histogram("usage.transfer_seconds", obs.DefaultDurationBuckets).
		Observe(r.Duration.Seconds())
}

// Collector receives usage reports. It is safe for concurrent use by many
// servers.
type Collector struct {
	mu         sync.Mutex
	byDay      map[string]*DayStats
	byEndpoint map[string]int64
}

// DayStats aggregates one day of fleet activity — one point of Fig 1.
type DayStats struct {
	Day       string // "2012-02-01"
	Transfers int64
	Bytes     int64
	Endpoints map[string]bool
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{
		byDay:      make(map[string]*DayStats),
		byEndpoint: make(map[string]int64),
	}
}

// Report records one transfer.
func (c *Collector) Report(r TransferRecord) {
	c.mu.Lock()
	defer c.mu.Unlock()
	day := r.When.UTC().Format("2006-01-02")
	ds, ok := c.byDay[day]
	if !ok {
		ds = &DayStats{Day: day, Endpoints: make(map[string]bool)}
		c.byDay[day] = ds
	}
	ds.Transfers++
	ds.Bytes += r.Bytes
	ds.Endpoints[r.Endpoint] = true
	c.byEndpoint[r.Endpoint]++
}

// ReportBatch records a server's daily summary in one call — the form
// real fleet reporting takes (servers batch their counters rather than
// streaming every transfer).
func (c *Collector) ReportBatch(endpoint string, when time.Time, transfers, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	day := when.UTC().Format("2006-01-02")
	ds, ok := c.byDay[day]
	if !ok {
		ds = &DayStats{Day: day, Endpoints: make(map[string]bool)}
		c.byDay[day] = ds
	}
	ds.Transfers += transfers
	ds.Bytes += bytes
	ds.Endpoints[endpoint] = true
	c.byEndpoint[endpoint] += transfers
}

// Days returns the per-day aggregates in chronological order.
func (c *Collector) Days() []DayStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]DayStats, 0, len(c.byDay))
	for _, ds := range c.byDay {
		cp := *ds
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Day < out[j].Day })
	return out
}

// Totals returns fleet-wide transfer count and bytes.
func (c *Collector) Totals() (transfers int64, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ds := range c.byDay {
		transfers += ds.Transfers
		bytes += ds.Bytes
	}
	return
}

// TopEndpoints returns the n busiest endpoints by transfer count.
func (c *Collector) TopEndpoints(n int) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	type ec struct {
		name  string
		count int64
	}
	all := make([]ec, 0, len(c.byEndpoint))
	for name, count := range c.byEndpoint {
		all = append(all, ec{name, count})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].count != all[j].count {
			return all[i].count > all[j].count
		}
		return all[i].name < all[j].name
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = all[i].name
	}
	return out
}

// FormatTable renders the Fig 1-style per-day series as an aligned text
// table (day, transfers, bytes, active endpoints).
func (c *Collector) FormatTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %16s %10s\n", "day", "transfers", "bytes", "endpoints")
	for _, ds := range c.Days() {
		fmt.Fprintf(&b, "%-12s %14d %16d %10d\n", ds.Day, ds.Transfers, ds.Bytes, len(ds.Endpoints))
	}
	return b.String()
}
