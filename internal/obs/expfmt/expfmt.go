// Package expfmt renders an obs.Registry in the one wire format external
// consumers understand: the Prometheus text exposition format, version
// 0.0.4 (counters, gauges, and histograms with cumulative
// _bucket/_sum/_count series and the +Inf bucket). It is what /metrics
// serves and what the binaries' -metrics flag dumps on exit. Every sample
// line is `name{labels} value`; nothing in the tree parses it back.
//
// Registry names are dotted paths with an optional brace-delimited
// instance ("netsim.link.bytes{siteA|siteB}"); the exposition maps dots
// (and any other character outside [a-zA-Z0-9_:]) to underscores and the
// instance to an instance="..." label. An instance containing '='
// ("outcome=ok", or several pairs comma-separated) is treated as named
// label pairs instead, so registries can emit dimensioned series like
// gridftp_server_command_seconds_bucket{outcome="ok",le="1"}.
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

// WriteText renders the registry in the Prometheus text exposition
// format: one "# TYPE" header per metric name, counters and gauges as
// single samples, histograms as cumulative _bucket series (ending in
// le="+Inf") plus _sum and _count.
func WriteText(w io.Writer, r *obs.Registry) error {
	bw := bufio.NewWriter(w)
	metrics := r.Snapshot()
	for _, kind := range []string{"counter", "gauge"} {
		names, groups := groupSeries(metrics, kind)
		for _, name := range names {
			fmt.Fprintf(bw, "# TYPE %s %s\n", name, kind)
			for _, s := range groups[name] {
				fmt.Fprintf(bw, "%s%s %d\n", name, labelPair(s.instance), s.value)
			}
		}
	}
	byName := make(map[string][]obs.HistogramSnapshot)
	var names []string
	for _, h := range r.HistogramSnapshots() {
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
				fmt.Fprintf(bw, "%s_bucket{%s} %d\n", name, strings.Join(pairs, ","), h.Counts[i])
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
