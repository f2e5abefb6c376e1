// Package expfmt renders an obs.Registry in the one wire format external
// consumers understand: the Prometheus text exposition format (counters,
// gauges, and histograms with cumulative _bucket/_sum/_count series and
// the +Inf bucket). It is what /metrics serves and what the binaries'
// -metrics flag dumps on exit; ParseTextSnapshot reads it back, for
// benchreport -metrics-snapshot.
//
// Registry names are dotted paths with an optional brace-delimited
// instance ("netsim.link.bytes{siteA|siteB}"); the exposition maps dots
// (and any other character outside [a-zA-Z0-9_:]) to underscores and the
// instance to an instance="..." label. An instance containing '='
// ("outcome=ok", or several pairs comma-separated) is treated as named
// label pairs instead, so registries can emit dimensioned series like
// gridftp_server_command_seconds_bucket{outcome="ok",le="1"}.
//
// Histogram bucket samples may carry a trace exemplar in the
// OpenMetrics style:
//
//	name_bucket{le="0.5"} 42 # {trace_id="4bf9..."} 0.31 1712000000.250
//
// i.e. " # " followed by a label set holding the trace id, the exemplar
// observation value, and an optional unix-seconds timestamp.
// WriteSnapshot emits exemplars for buckets that have one;
// ParseTextSnapshot reads them back; plain ParseText (and any standard
// Prometheus scraper) ignores them.
package expfmt

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"gridftp.dev/instant/internal/obs"
)

// TextContentType is the Content-Type of the Prometheus text format.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// SanitizeName maps a registry metric name (without its instance part)
// onto the Prometheus name charset: every character outside
// [a-zA-Z0-9_:] becomes '_', and a leading digit gets a '_' prefix.
func SanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// splitInstance separates "base{inst}" into base and instance.
func splitInstance(name string) (base, instance string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// formatLe renders a bucket upper bound ("+Inf" for the infinite bucket).
func formatLe(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

type series struct {
	instance string
	value    int64
}

// groupSeries buckets snapshot metrics of one kind by sanitized base
// name, sorted for stable output. Grouping matters: the format requires
// all samples of one metric name to be contiguous under its TYPE header,
// and lexical registry order does not guarantee that ("a.b2" sorts
// between "a.b" and "a.b{x}").
func groupSeries(metrics []obs.Metric, kind string) (names []string, groups map[string][]series) {
	groups = make(map[string][]series)
	for _, m := range metrics {
		if m.Kind != kind {
			continue
		}
		base, inst := splitInstance(m.Name)
		name := SanitizeName(base)
		groups[name] = append(groups[name], series{instance: inst, value: m.Value})
	}
	names = make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
		sort.Slice(groups[name], func(i, j int) bool {
			return groups[name][i].instance < groups[name][j].instance
		})
	}
	sort.Strings(names)
	return names, groups
}

// labelPairs renders the registry instance part as exposition label
// pairs: a plain instance becomes instance="...", while "k=v" content
// (comma-separated for several) becomes named labels.
func labelPairs(instance string) []string {
	if instance == "" {
		return nil
	}
	if !strings.Contains(instance, "=") {
		return []string{fmt.Sprintf(`instance="%s"`, escapeLabel(instance))}
	}
	parts := strings.Split(instance, ",")
	out := make([]string, 0, len(parts))
	for _, kv := range parts {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			k, v = "instance", kv
		}
		out = append(out, fmt.Sprintf(`%s="%s"`, SanitizeName(k), escapeLabel(v)))
	}
	return out
}

func labelPair(instance string) string {
	pairs := labelPairs(instance)
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// Snapshot is the full-fidelity state of one registry: counters and
// gauges as flat metrics, histograms at bucket level with their
// exemplars. WriteSnapshot renders it, ParseTextSnapshot reads it back
// with nothing lost.
type Snapshot struct {
	Metrics    []obs.Metric            // counters and gauges ("histogram"-kind entries are ignored)
	Histograms []obs.HistogramSnapshot // bucket-level state, exemplars included
}

// SnapshotRegistry captures reg as a Snapshot.
func SnapshotRegistry(reg *obs.Registry) Snapshot {
	var plain []obs.Metric
	for _, m := range reg.Snapshot() {
		if m.Kind != "histogram" {
			plain = append(plain, m)
		}
	}
	return Snapshot{Metrics: plain, Histograms: reg.HistogramSnapshots()}
}

// WriteText renders the registry in the Prometheus text exposition
// format: one "# TYPE" header per metric name, counters and gauges as
// single samples, histograms as cumulative _bucket series (ending in
// le="+Inf") plus _sum and _count.
func WriteText(w io.Writer, r *obs.Registry) error {
	return WriteSnapshot(w, SnapshotRegistry(r))
}

// exemplarSuffix renders a bucket exemplar in the OpenMetrics style, or
// "" when the bucket has none.
func exemplarSuffix(e obs.Exemplar) string {
	if e.TraceID == "" {
		return ""
	}
	s := fmt.Sprintf(` # {trace_id="%s"} %s`,
		escapeLabel(e.TraceID), strconv.FormatFloat(e.Value, 'g', -1, 64))
	if !e.Time.IsZero() {
		s += " " + strconv.FormatFloat(float64(e.Time.UnixNano())/1e9, 'f', 3, 64)
	}
	return s
}

// WriteSnapshot renders a snapshot in the Prometheus text exposition
// format, bucket exemplars included.
func WriteSnapshot(w io.Writer, snap Snapshot) error {
	bw := bufio.NewWriter(w)
	for _, kind := range []string{"counter", "gauge"} {
		names, groups := groupSeries(snap.Metrics, kind)
		for _, name := range names {
			fmt.Fprintf(bw, "# TYPE %s %s\n", name, kind)
			for _, s := range groups[name] {
				fmt.Fprintf(bw, "%s%s %d\n", name, labelPair(s.instance), s.value)
			}
		}
	}
	byName := make(map[string][]obs.HistogramSnapshot)
	var names []string
	for _, h := range snap.Histograms {
		base, inst := splitInstance(h.Name)
		name := SanitizeName(base)
		if _, ok := byName[name]; !ok {
			names = append(names, name)
		}
		h.Name = inst // reuse the field to carry the instance
		byName[name] = append(byName[name], h)
	}
	sort.Strings(names)
	for _, name := range names {
		group := byName[name]
		sort.Slice(group, func(i, j int) bool { return group[i].Name < group[j].Name })
		fmt.Fprintf(bw, "# TYPE %s histogram\n", name)
		for _, h := range group {
			for i, b := range h.Bounds {
				pairs := append(labelPairs(h.Name), fmt.Sprintf(`le="%s"`, formatLe(b)))
				ex := ""
				if i < len(h.Exemplars) {
					ex = exemplarSuffix(h.Exemplars[i])
				}
				fmt.Fprintf(bw, "%s_bucket{%s} %d%s\n", name, strings.Join(pairs, ","), h.Counts[i], ex)
			}
			fmt.Fprintf(bw, "%s_sum%s %g\n", name, labelPair(h.Name), h.Sum)
			fmt.Fprintf(bw, "%s_count%s %d\n", name, labelPair(h.Name), h.Count)
		}
	}
	return bw.Flush()
}

// ServeJSON answers an HTTP request with v as indented JSON — the one way
// the admin plane writes a JSON body.
func ServeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// histAcc accumulates one histogram's series during a text parse.
type histAcc struct {
	bounds    []float64
	counts    []int64
	exemplars []obs.Exemplar
	sum       float64
	count     int64
}

// ParseText reads a Prometheus text exposition (as written by WriteText,
// or any standard exporter limited to counters/gauges/histograms) back
// into obs.Metric values: histograms are reassembled from their
// _bucket/_sum/_count series, and the p50/p90/p99 estimates are
// recomputed from the parsed buckets. Metric names keep their exposition
// (underscored) form; an instance label is folded back into the
// "name{instance}" convention. Exemplars are parsed but dropped; use
// ParseTextSnapshot to keep bucket-level state.
func ParseText(r io.Reader) ([]obs.Metric, error) {
	snap, err := ParseTextSnapshot(r)
	if err != nil {
		return nil, err
	}
	out := make([]obs.Metric, 0, len(snap.Metrics)+len(snap.Histograms))
	out = append(out, snap.Metrics...)
	for _, h := range snap.Histograms {
		out = append(out, obs.Metric{
			Name: h.Name, Kind: "histogram", Value: h.Count, Sum: h.Sum,
			P50: h.P50, P90: h.P90, P99: h.P99,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ParseTextSnapshot reads a Prometheus text exposition back into a
// full-fidelity Snapshot: counters/gauges as flat metrics, histograms
// reassembled at bucket level with exemplars and recomputed quantile
// estimates.
func ParseTextSnapshot(r io.Reader) (Snapshot, error) {
	types := make(map[string]string)
	plain := make(map[string]obs.Metric) // counters/gauges by full name
	hists := make(map[string]*histAcc)   // by "name{instance}"

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) >= 4 && f[1] == "TYPE" {
				types[f[2]] = f[3]
			}
			continue
		}
		name, labels, value, exemplar, err := parseSample(line)
		if err != nil {
			return Snapshot{}, err
		}
		instance := instanceOf(labels)
		switch {
		case strings.HasSuffix(name, "_bucket") && types[strings.TrimSuffix(name, "_bucket")] == "histogram":
			base := strings.TrimSuffix(name, "_bucket")
			h := histFor(hists, obs.Name(base, instance))
			le := labels["le"]
			bound := math.Inf(1)
			if le != "+Inf" {
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					return Snapshot{}, fmt.Errorf("expfmt: bad le=%q in %q", le, line)
				}
			}
			h.bounds = append(h.bounds, bound)
			h.counts = append(h.counts, clampCount(value))
			ex := obs.Exemplar{}
			if exemplar != nil {
				ex = *exemplar
			}
			h.exemplars = append(h.exemplars, ex)
		case strings.HasSuffix(name, "_sum") && types[strings.TrimSuffix(name, "_sum")] == "histogram":
			histFor(hists, obs.Name(strings.TrimSuffix(name, "_sum"), instance)).sum = value
		case strings.HasSuffix(name, "_count") && types[strings.TrimSuffix(name, "_count")] == "histogram":
			histFor(hists, obs.Name(strings.TrimSuffix(name, "_count"), instance)).count = clampCount(value)
		default:
			kind := types[name]
			if kind != "counter" && kind != "gauge" {
				// Untyped or unsupported family (summary, untyped):
				// treat as a gauge so nothing silently disappears.
				kind = "gauge"
			}
			plain[obs.Name(name, instance)] = obs.Metric{
				Name: obs.Name(name, instance), Kind: kind, Value: clampCount(value),
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Snapshot{}, err
	}

	var snap Snapshot
	for _, m := range plain {
		snap.Metrics = append(snap.Metrics, m)
	}
	sort.Slice(snap.Metrics, func(i, j int) bool { return snap.Metrics[i].Name < snap.Metrics[j].Name })
	for name, h := range hists {
		sort.Sort(&boundSort{h.bounds, h.counts, h.exemplars})
		hs := obs.HistogramSnapshot{
			Name: name, Bounds: h.bounds, Counts: h.counts,
			Exemplars: h.exemplars, Count: h.count, Sum: h.sum,
		}
		if h.count > 0 {
			hs.P50 = obs.QuantileFromBuckets(h.bounds, h.counts, 0.50)
			hs.P90 = obs.QuantileFromBuckets(h.bounds, h.counts, 0.90)
			hs.P99 = obs.QuantileFromBuckets(h.bounds, h.counts, 0.99)
		}
		snap.Histograms = append(snap.Histograms, hs)
	}
	sort.Slice(snap.Histograms, func(i, j int) bool { return snap.Histograms[i].Name < snap.Histograms[j].Name })
	return snap, nil
}

// clampCount converts a parsed sample value to int64, saturating instead
// of invoking implementation-defined float→int conversion on values
// outside the int64 range (a malformed exposition must not yield
// nonsense negatives for a huge positive count).
func clampCount(v float64) int64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v >= math.MaxInt64:
		return math.MaxInt64
	case v <= math.MinInt64:
		return math.MinInt64
	}
	return int64(v)
}

// instanceOf folds parsed labels (minus le) back into the registry
// "name{instance}" convention: a lone instance label keeps its plain
// value; anything else becomes sorted comma-separated k=v pairs.
func instanceOf(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return ""
	}
	if len(keys) == 1 && keys[0] == "instance" {
		return labels["instance"]
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + labels[k]
	}
	return strings.Join(parts, ",")
}

func histFor(m map[string]*histAcc, key string) *histAcc {
	h, ok := m[key]
	if !ok {
		h = &histAcc{}
		m[key] = h
	}
	return h
}

type boundSort struct {
	bounds    []float64
	counts    []int64
	exemplars []obs.Exemplar
}

func (s *boundSort) Len() int           { return len(s.bounds) }
func (s *boundSort) Less(i, j int) bool { return s.bounds[i] < s.bounds[j] }
func (s *boundSort) Swap(i, j int) {
	s.bounds[i], s.bounds[j] = s.bounds[j], s.bounds[i]
	s.counts[i], s.counts[j] = s.counts[j], s.counts[i]
	if len(s.exemplars) == len(s.bounds) {
		s.exemplars[i], s.exemplars[j] = s.exemplars[j], s.exemplars[i]
	}
}

// parseSample splits one exposition sample line into name, labels,
// value, and an optional exemplar annotation. Trailing timestamps on
// the sample itself are ignored.
func parseSample(line string) (name string, labels map[string]string, value float64, exemplar *obs.Exemplar, err error) {
	// An exemplar annotation starts with " # " and carries its own brace
	// block; strip it before label detection so an unlabeled sample
	// (`foo 5 # {...} 0.3`) does not mistake the exemplar braces for
	// labels. When the sample has labels, the first '{' precedes any
	// " # " and the annotation is split off the remainder instead.
	sample := line
	var exPart string
	braceAt := strings.IndexByte(line, '{')
	if hashAt := strings.Index(line, " # "); hashAt >= 0 && (braceAt < 0 || hashAt < braceAt) {
		sample, exPart = line[:hashAt], line[hashAt+3:]
	}
	labels = make(map[string]string)
	rest := sample
	if i := strings.IndexByte(sample, '{'); i >= 0 {
		name = sample[:i]
		j := strings.IndexByte(sample[i:], '}')
		if j < 0 {
			return "", nil, 0, nil, fmt.Errorf("expfmt: unterminated labels in %q", line)
		}
		if labels, err = parseLabels(sample[i+1 : i+j]); err != nil {
			return "", nil, 0, nil, fmt.Errorf("expfmt: %v in %q", err, line)
		}
		rest = strings.TrimSpace(sample[i+j+1:])
	} else {
		f := strings.Fields(sample)
		if len(f) < 2 {
			return "", nil, 0, nil, fmt.Errorf("expfmt: malformed sample %q", line)
		}
		name = f[0]
		rest = strings.Join(f[1:], " ")
	}
	if exPart == "" {
		if k := strings.Index(rest, " # "); k >= 0 {
			rest, exPart = rest[:k], rest[k+3:]
		}
	}
	f := strings.Fields(rest)
	if len(f) < 1 {
		return "", nil, 0, nil, fmt.Errorf("expfmt: missing value in %q", line)
	}
	value, err = strconv.ParseFloat(f[0], 64)
	if err != nil {
		return "", nil, 0, nil, fmt.Errorf("expfmt: bad value in %q: %v", line, err)
	}
	return name, labels, value, parseExemplar(exPart), nil
}

// parseExemplar parses the `{trace_id="..."} value [unix-ts]` tail of an
// exemplar annotation. Malformed exemplars yield nil rather than failing
// the whole sample — exemplars are best-effort decoration.
func parseExemplar(s string) *obs.Exemplar {
	s = strings.TrimSpace(s)
	if len(s) == 0 || s[0] != '{' {
		return nil
	}
	j := strings.IndexByte(s, '}')
	if j < 0 {
		return nil
	}
	labels, err := parseLabels(s[1:j])
	if err != nil || labels["trace_id"] == "" {
		return nil
	}
	ex := &obs.Exemplar{TraceID: labels["trace_id"]}
	f := strings.Fields(s[j+1:])
	if len(f) >= 1 {
		if v, err := strconv.ParseFloat(f[0], 64); err == nil && !math.IsNaN(v) {
			ex.Value = v
		}
	}
	if len(f) >= 2 {
		// Reject timestamps outside a plausible unix-seconds range so a
		// garbage exposition cannot smuggle ±Inf into time conversion.
		if ts, err := strconv.ParseFloat(f[1], 64); err == nil && math.Abs(ts) < 1e12 {
			sec := int64(ts)
			ex.Time = time.Unix(sec, int64((ts-float64(sec))*1e9))
		}
	}
	return ex
}

// parseLabels parses `k="v",k2="v2"` (values may contain escaped quotes).
func parseLabels(s string) (map[string]string, error) {
	out := make(map[string]string)
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, fmt.Errorf("bad label segment %q", s)
		}
		key := strings.TrimSpace(s[:eq])
		s = s[eq+1:]
		if len(s) == 0 || s[0] != '"' {
			return nil, fmt.Errorf("label %s value not quoted", key)
		}
		s = s[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(s[i])
				}
				continue
			}
			if c == '"' {
				s = strings.TrimPrefix(strings.TrimSpace(s[i+1:]), ",")
				s = strings.TrimSpace(s)
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("label %s value unterminated", key)
		}
		out[key] = val.String()
	}
	return out, nil
}
