package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// fingerprint identifies the machine and build a result came from; numbers
// from different fingerprints are not comparable.
type fingerprint struct {
	CPU        string `json:"cpu"`
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func readFingerprint() fingerprint {
	fp := fingerprint{
		CPU: "unknown", Cores: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		Commit: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				fp.Commit = s.Value
			}
		}
	}
	if fp.Commit == "unknown" { // `go run` does not stamp; read the checkout, if it is one
		if head, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
			ref := strings.TrimSpace(string(head))
			if name, ok := strings.CutPrefix(ref, "ref: "); ok {
				if sha, err := os.ReadFile(filepath.Join(".git", name)); err == nil {
					ref = strings.TrimSpace(string(sha))
				}
			}
			fp.Commit = ref
		}
	}
	return fp
}

// metricStats is one metric on one workload across the repetitions.
type metricStats struct {
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"` // (q3-q1)/median; 0 when n < 2
	Values []float64 `json:"values"`
}

// resultFile is the one JSON result a command writes: <out>/result.json.
// A single run is the n = 1 case of a repeated one, so -compare reads both.
type resultFile struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Seconds     float64     `json:"seconds"`
	Seeds       []int64     `json:"seeds"`
	// Workloads maps workload → metric → stats; "probes" holds the layer
	// probes when they ran once for the whole set.
	Workloads map[string]map[string]*metricStats `json:"workloads"`
}

func newResultFile(o options) *resultFile {
	return &resultFile{Fingerprint: readFingerprint(), Seconds: o.seconds, Workloads: map[string]map[string]*metricStats{}}
}

func (f *resultFile) add(workload string, metrics map[string]float64) {
	w := f.Workloads[workload]
	if w == nil {
		w = map[string]*metricStats{}
		f.Workloads[workload] = w
	}
	for k, v := range metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		if w[k] == nil {
			w[k] = &metricStats{}
		}
		w[k].Values = append(w[k].Values, v)
	}
}

func (f *resultFile) finish() {
	for _, w := range f.Workloads {
		for _, st := range w {
			st.N = len(st.Values)
			st.Median = median(st.Values)
			st.Q1, st.Q3 = quartiles(st.Values)
			if st.N >= 2 {
				st.Spread = spread(st.Values)
			}
		}
	}
}

func (f *resultFile) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// printSpreads is the -repeat summary: every end-to-end metric per workload
// with its run-to-run spread next to the bound it must stay inside.
func printSpreads(w io.Writer, spec *benchSpec, f *resultFile) {
	fmt.Fprintf(w, "== %d repetitions: median [q1, q3], spread = (q3-q1)/median ==\n", len(f.Seeds))
	for _, wl := range spec.Workloads {
		stats := f.Workloads[wl.Name]
		if stats == nil {
			continue
		}
		fmt.Fprintf(w, "  %s\n", wl.Name)
		for _, m := range spec.EndToEnd {
			st := stats[m.Name]
			if st == nil {
				continue
			}
			fmt.Fprintf(w, "    %-16s %12.6g %-5s [%.6g, %.6g]  spread %5.2f%%  bound %g%%\n",
				m.Name, st.Median, m.Unit, st.Q1, st.Q3, st.Spread*100, m.Bound*100)
		}
	}
}

// verdict labels B against A for one bounded metric. worse is B's relative
// change in the direction that counts as worse; noise is the larger of the
// two recorded spreads.
func verdict(worse, noise, bound float64) string {
	switch {
	case noise > bound:
		return "unresolved"
	case worse > bound:
		return "regressed"
	case worse < -bound:
		return "improved"
	}
	return "unchanged"
}

// compareFiles prints B against A: one row per workload × end-to-end metric
// with its verdict, then the per-layer metrics whose medians moved by more
// than the recorded spread. It exits 1 when anything regressed.
func compareFiles(spec *benchSpec, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResultFile(pathA)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	b, err := readResultFile(pathB)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return compareResults(spec, a, b, stdout)
}

func compareResults(spec *benchSpec, a, b *resultFile, w io.Writer) int {
	if a.Fingerprint.CPU != b.Fingerprint.CPU || a.Fingerprint.GOMAXPROCS != b.Fingerprint.GOMAXPROCS || a.Fingerprint.Go != b.Fingerprint.Go {
		fmt.Fprintf(w, "warning: fingerprints differ (%s, %d procs, %s vs %s, %d procs, %s); times are not comparable\n",
			a.Fingerprint.CPU, a.Fingerprint.GOMAXPROCS, a.Fingerprint.Go, b.Fingerprint.CPU, b.Fingerprint.GOMAXPROCS, b.Fingerprint.Go)
	}
	fmt.Fprintf(w, "A: commit %s, %d run(s)   B: commit %s, %d run(s)\n", a.Fingerprint.Commit, len(a.Seeds), b.Fingerprint.Commit, len(b.Seeds))
	fmt.Fprintf(w, "%-20s %-16s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "B vs A", "spread", "bound", "verdict")
	regressed := 0
	for _, wl := range spec.Workloads {
		sa, sb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		for _, m := range spec.EndToEnd {
			x, y := sa[m.Name], sb[m.Name]
			if x == nil || y == nil || x.Median == 0 {
				continue
			}
			change := (y.Median - x.Median) / x.Median
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			noise := math.Max(x.Spread, y.Spread)
			v := verdict(worse, noise, m.Bound)
			if x.N < 2 || y.N < 2 {
				v += " (no spread recorded)"
			}
			if strings.HasPrefix(v, "regressed") {
				regressed++
			}
			fmt.Fprintf(w, "%-20s %-16s %12.6g %12.6g %+7.2f%% %7.2f%% %6g%%  %s\n",
				wl.Name, m.Name, x.Median, y.Median, change*100, noise*100, m.Bound*100, v)
		}
	}
	fmt.Fprintln(w, "per-layer metrics whose median moved by more than the recorded spread (no bound; they diagnose):")
	moved := 0
	names := []string{"probes"}
	for _, wl := range spec.Workloads {
		names = append(names, wl.Name)
	}
	for _, name := range names {
		sa, sb := a.Workloads[name], b.Workloads[name]
		for _, m := range spec.PerLayer {
			x, y := sa[m.Name], sb[m.Name]
			if x == nil || y == nil || x.Median == y.Median {
				continue
			}
			change := "   from 0"
			if x.Median != 0 {
				rel := (y.Median - x.Median) / math.Abs(x.Median)
				if math.Abs(rel) <= math.Max(x.Spread, y.Spread) {
					continue
				}
				change = fmt.Sprintf("%+8.2f%%", rel*100)
			}
			moved++
			fmt.Fprintf(w, "  %-20s %-36s %12.6g → %-12.6g %s %s\n", name, m.Name, x.Median, y.Median, change, m.Unit)
		}
	}
	if moved == 0 {
		fmt.Fprintln(w, "  none")
	}
	if regressed > 0 {
		return 1
	}
	return 0
}
