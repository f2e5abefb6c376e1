package main

// The -dashboard renderer: a one-shot terminal view of a live admin
// plane's time-series recorder — a sparkline per series, the active
// alerts and the stream health table. Point it at any daemon started with
// -admin:
//
//	benchreport -dashboard http://127.0.0.1:9970
//
// or at a saved /debug/timeseries JSON document.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"time"
)

// sparkRunes are the eight-level bar glyphs, lowest to highest.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkWidth is how many cells a sparkline gets; longer histories are
// tail-truncated (the dashboard is about "now", the endpoint has the
// full history).
const sparkWidth = 40

type tsPoint struct {
	V float64 `json:"v"`
}

type tsSeries struct {
	Name   string    `json:"name"`
	Points []tsPoint `json:"points"`
}

type tsDocument struct {
	Now    time.Time  `json:"now"`
	Series []tsSeries `json:"series"`
}

type alertDocument struct {
	Active int `json:"active"`
	Alerts []struct {
		Rule struct {
			Name     string  `json:"name"`
			Value    float64 `json:"value"`
			Severity string  `json:"severity"`
		} `json:"rule"`
		State string  `json:"state"`
		Value float64 `json:"value"`
	} `json:"alerts"`
}

// renderDashboard loads the recorder state from src — an admin-plane base
// URL (or a full /debug/timeseries URL) or a JSON file — and prints the
// dashboard. Alerts are fetched from the same base when src is a URL.
func renderDashboard(src string) error {
	var doc tsDocument
	var alerts *alertDocument
	var streamTable string

	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		base := strings.TrimSuffix(src, "/")
		tsURL := base
		if !strings.Contains(base, "/debug/timeseries") {
			tsURL = base + "/debug/timeseries"
		}
		if err := fetchJSON(tsURL, &doc); err != nil {
			return err
		}
		if i := strings.Index(base, "/debug/timeseries"); i >= 0 {
			base = base[:i]
		}
		var a alertDocument
		if err := fetchJSON(base+"/alerts", &a); err == nil {
			alerts = &a
		}
		// An unreachable /alerts (a server built without the plane: 404)
		// just hides the table. Same contract for the stream health table:
		// without the stream-telemetry plane the section is omitted.
		if txt, err := fetchText(base + "/debug/streams?format=text"); err == nil {
			streamTable = txt
		}
	} else if err := fetchJSON(src, &doc); err != nil {
		return fmt.Errorf("%s: %w", src, err)
	}

	fmt.Printf("telemetry dashboard — %s", src)
	if !doc.Now.IsZero() {
		fmt.Printf(" @ %s", doc.Now.Local().Format("15:04:05"))
	}
	fmt.Printf("\n%s\n\n", strings.Repeat("=", 72))

	if alerts != nil {
		renderAlertTable(*alerts)
	}
	if streamTable != "" {
		fmt.Println("stream health (per-stream wire telemetry)")
		for _, line := range strings.Split(strings.TrimRight(streamTable, "\n"), "\n") {
			fmt.Println("  " + line)
		}
		fmt.Println()
	}
	renderSparklines(doc.Series)
	return nil
}

// readSource returns what src holds: the body of an http(s):// URL (any
// status but 200 is an error) or the contents of a file.
func readSource(src string) ([]byte, error) {
	if !strings.HasPrefix(src, "http://") && !strings.HasPrefix(src, "https://") {
		return os.ReadFile(src)
	}
	resp, err := http.Get(src)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: %s", src, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

func fetchJSON(url string, v any) error {
	raw, err := readSource(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(raw, v)
}

func fetchText(url string) (string, error) {
	raw, err := readSource(url)
	return string(raw), err
}

func renderAlertTable(a alertDocument) {
	fmt.Printf("alerts (%d active)\n", a.Active)
	if len(a.Alerts) == 0 {
		fmt.Println("  (no rules installed)")
		fmt.Println()
		return
	}
	fmt.Printf("  %-8s %-34s %-10s %12s %12s\n", "state", "rule", "severity", "value", "threshold")
	for _, al := range a.Alerts {
		marker := " "
		if al.State == "firing" {
			marker = "!"
		}
		fmt.Printf("%s %-8s %-34s %-10s %12.4g %12.4g\n",
			marker, al.State, al.Rule.Name, al.Rule.Severity, al.Value, al.Rule.Value)
	}
	fmt.Println()
}

func renderSparklines(series []tsSeries) {
	if len(series) == 0 {
		fmt.Println("(no series recorded)")
		return
	}
	nameW := 0
	for _, s := range series {
		if len(s.Name) > nameW {
			nameW = len(s.Name)
		}
	}
	if nameW > 52 {
		nameW = 52
	}
	for _, s := range series {
		if len(s.Points) == 0 {
			continue
		}
		pts := s.Points
		if len(pts) > sparkWidth {
			pts = pts[len(pts)-sparkWidth:]
		}
		name := s.Name
		if len(name) > nameW {
			name = "…" + name[len(name)-nameW+1:]
		}
		last := pts[len(pts)-1].V
		fmt.Printf("  %-*s %-*s %12s\n", nameW, name, sparkWidth, sparkline(pts), fmtValue(last))
	}
}

// sparkline maps the points' values onto the eight bar glyphs, scaled to
// the window's own min/max (a flat series renders as a low bar).
func sparkline(pts []tsPoint) string {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range pts {
		lo = math.Min(lo, p.V)
		hi = math.Max(hi, p.V)
	}
	var b strings.Builder
	for _, p := range pts {
		idx := 0
		if hi > lo {
			idx = int((p.V - lo) / (hi - lo) * float64(len(sparkRunes)-1))
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

func fmtValue(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e6 || math.Abs(v) < 1e-3:
		return fmt.Sprintf("%.3g", v)
	}
	return fmt.Sprintf("%.3f", v)
}
