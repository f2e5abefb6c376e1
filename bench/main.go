// Command bench is the repository's benchmark: five closed-loop workloads
// over the simulated network, six end-to-end metrics per workload, a
// per-layer budget from a separate traced run, and layer probes. It
// measures every layer from outside — by timing calls into public functions
// and through the dsi.Storage and obs.Obs seams — so it compiles unchanged
// across refactors of the code it measures. See README.md in this directory.
//
//	go run ./bench [-workload W] [-trace 0|1] [-seed N] [-seconds S]
//	               [-probes] [-repeat N] [-out dir] [-compare A.json B.json]
//
// The names and bounds of everything it prints are declared in
// BENCHMARK.json at the repository root, which it reads at start-up.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// setupRepeats is how many extra set-up-only children an end-to-end run
// starts, so setup_s is the median of several set-ups rather than one.
const setupRepeats = 4

// probeReps is how many repetitions each layer probe takes its median over.
const probeReps = 10

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	trace    string
	seed     int64
	seconds  float64
	probes   bool
	repeat   int
	outDir   string
	specPath string
	compare  bool

	child   string // hidden: this process is a child doing one job
	started int64  // hidden: parent's spawn time, unix nanoseconds
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all five)")
	fs.StringVar(&o.trace, "trace", "", "0 = only the untraced end-to-end run, 1 = only the traced per-layer run (default: both)")
	fs.Int64Var(&o.seed, "seed", 1, "seed for payload bytes and the hosted directory's file sizes")
	fs.Float64Var(&o.seconds, "seconds", 0, "measured seconds per run (default: run_seconds of BENCHMARK.json)")
	fs.BoolVar(&o.probes, "probes", false, "run only the layer probes")
	fs.IntVar(&o.repeat, "repeat", 1, "repeat the whole set N times (seed, seed+1, …) and record median, quartiles and spread")
	fs.StringVar(&o.outDir, "out", ".bench_out", "directory for result.json and <workload>.trace.json")
	fs.StringVar(&o.specPath, "spec", "BENCHMARK.json", "path of BENCHMARK.json")
	fs.BoolVar(&o.compare, "compare", false, "compare two result files: -compare A.json B.json")
	fs.StringVar(&o.child, "child", "", "internal: run one child job (measure|traced|setup|probes)")
	fs.Int64Var(&o.started, "started", 0, "internal: when the parent spawned this child (unix ns)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if o.child != "" {
		return childMain(o, stdout, stderr)
	}
	spec, err := loadSpec(o.specPath)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if o.compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	if o.repeat < 1 {
		o.repeat = 1
	}
	return parentMain(o, spec, stdout, stderr)
}

// childMain is the other side of spawn: do one job, print one JSON line.
func childMain(o options, stdout, stderr io.Writer) int {
	cfg := childConfig{
		workload: o.workload, mode: o.child, seed: o.seed, seconds: o.seconds,
		outDir: o.outDir, started: time.Unix(0, o.started), sz: fullSizes, reps: probeReps,
	}
	if o.started == 0 {
		cfg.started = time.Now()
	}
	res, err := runChild(cfg, stderr)
	if res != nil {
		json.NewEncoder(stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// spawn re-executes this binary as one child and decodes its result.
func spawn(o options, mode, workload string, seed int64, seconds float64, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe,
		"-child", mode, "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-out", o.outDir,
		"-started", strconv.FormatInt(time.Now().UnixNano(), 10))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = stderr
	runErr := cmd.Run()
	var res childResult
	if err := json.Unmarshal(bytes.TrimSpace(out.Bytes()), &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s child of %s: %w", mode, workload, runErr)
		}
		return nil, fmt.Errorf("%s child of %s: unreadable result: %w", mode, workload, err)
	}
	if runErr != nil {
		return &res, fmt.Errorf("%s child of %s: %w", mode, workload, runErr)
	}
	return &res, nil
}

// runResult is one workload's outcome for one seed.
type runResult struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	errs      []string
	metrics   map[string]float64 // whatever this invocation measured, by declared name
}

// absorb counts a child's ops and failures and overlays its metrics.
func (r *runResult) absorb(c *childResult) {
	if c == nil {
		return
	}
	r.attempted += c.Attempted
	r.failed += c.Failed
	r.errs = append(r.errs, c.Errors...)
	for k, v := range c.Metrics {
		r.metrics[k] = v
	}
}

// endToEndRun is the untraced half: one measured child, plus set-up-only
// children so that setup_s is a median.
func endToEndRun(o options, r *runResult, stderr io.Writer) error {
	c, err := spawn(o, "measure", r.workload, r.seed, o.seconds, stderr)
	r.absorb(c)
	if err != nil {
		return err
	}
	setups := []float64{c.Metrics["setup_s"]}
	for i := 0; i < setupRepeats; i++ {
		s, err := spawn(o, "setup", r.workload, r.seed, 0, stderr)
		if err != nil {
			return err
		}
		setups = append(setups, s.Metrics["setup_s"])
	}
	r.metrics["setup_s"] = median(setups)
	return nil
}

// tracedRun is the per-layer half: a traced child (spans and the storage
// decorator), an untraced reference child of the same length (the counters,
// and the p50 the tracing overhead is read against), and — unless the caller
// runs them once for the whole set — the layer probes.
func tracedRun(o options, spec *benchSpec, r *runResult, withProbes bool, stderr io.Writer) error {
	seconds := o.seconds / 3
	tr, err := spawn(o, "traced", r.workload, r.seed, seconds, stderr)
	r.absorb(tr)
	if err != nil {
		return err
	}
	ref, err := spawn(o, "measure", r.workload, r.seed, seconds, stderr)
	r.absorb(ref) // second, so the counters both children read come from the untraced one
	if err != nil {
		return err
	}
	r.metrics["client.trace_overhead_pct"] = 100 * (tr.Metrics["op_p50_s"]/ref.Metrics["op_p50_s"] - 1)
	for _, m := range spec.EndToEnd { // a third-length phase is not an end-to-end result
		delete(r.metrics, m.Name)
	}
	if withProbes {
		p, err := spawn(o, "probes", "", r.seed, 0, stderr)
		if err != nil {
			return err
		}
		for k, v := range p.Metrics {
			r.metrics[k] = v
		}
	}
	return nil
}

func parentMain(o options, spec *benchSpec, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range spec.Workloads {
		if o.probes || (o.workload != "" && o.workload != w.Name) {
			continue
		}
		if _, ok := findWorkload(w.Name); !ok {
			fmt.Fprintf(stderr, "bench: BENCHMARK.json names workload %q, which this benchmark does not build\n", w.Name)
			return 1
		}
		names = append(names, w.Name)
	}
	if len(names) == 0 && !o.probes {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	doE2E := o.trace != "1"
	doTrace := o.trace != "0"
	// One workload, one pass: the shape the driver calls. Its traced half
	// carries the probes itself, so that it prints every per-layer metric;
	// a larger set runs them once per pass instead.
	single := len(names) == 1 && o.repeat == 1

	file := newResultFile(o)
	ok := true
	fail := func(err error) {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		ok = false
	}
	var last *runResult
	for rep := 0; rep < o.repeat; rep++ {
		seed := o.seed + int64(rep)
		file.Seeds = append(file.Seeds, seed)
		var probeMetrics map[string]float64
		if o.probes || (doTrace && !single) {
			p, err := spawn(o, "probes", "", seed, 0, stderr)
			if err != nil {
				fail(err)
			}
			if p != nil {
				probeMetrics = p.Metrics
				fmt.Fprintf(stdout, "== layer probes (median of %d repetitions each) ==\n", probeReps)
				printMetrics(stdout, spec.PerLayer, probeMetrics)
				file.add("probes", probeMetrics)
			}
		}
		for _, name := range names {
			res := &runResult{workload: name, seed: seed, metrics: map[string]float64{}}
			// The full-length untraced run goes last: where both halves read
			// a counter, its value wins over the short reference's.
			if doTrace {
				if err := tracedRun(o, spec, res, single, stderr); err != nil {
					fail(err)
				}
			}
			if doE2E {
				if err := endToEndRun(o, res, stderr); err != nil {
					fail(err)
				}
			}
			for _, e := range res.errs {
				fail(fmt.Errorf("%s: %s", name, e))
			}
			if res.failed > 0 {
				ok = false
			}
			fmt.Fprintf(stdout, "== %s  seed %d  %g s measured  ops attempted %d  failed %d  fail_ratio %g ==\n",
				name, seed, o.seconds, res.attempted, res.failed, float64(res.failed)/math.Max(1, float64(res.attempted)))
			if doE2E {
				fmt.Fprintln(stdout, "  end-to-end (untraced run)")
				printMetrics(stdout, spec.EndToEnd, res.metrics)
			}
			fmt.Fprintln(stdout, "  per-layer")
			printMetrics(stdout, spec.PerLayer, res.metrics)
			file.add(name, res.metrics)
			last = res
		}
	}
	file.finish()
	if err := file.write(filepath.Join(o.outDir, "result.json")); err != nil {
		fail(err)
	}
	if o.repeat > 1 {
		printSpreads(stdout, spec, file)
	}
	if single && last != nil && ok {
		// The driver's contract: exactly the declared metrics of the half it
		// asked for, as the last line of standard output. A run that failed
		// prints no result.
		var want []metricDecl
		if doE2E {
			want = append(want, spec.EndToEnd...)
		}
		if doTrace {
			want = append(want, spec.PerLayer...)
		}
		line, err := contractLine(last, want)
		if err != nil {
			fail(err)
		} else {
			fmt.Fprintln(stdout, line)
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// contractLine renders the one JSON object the driver reads.
func contractLine(r *runResult, want []metricDecl) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	var missing []string
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, m.Name)
			continue
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	if len(missing) > 0 {
		return "", fmt.Errorf("%s: declared in BENCHMARK.json but not measured: %s", r.workload, strings.Join(missing, ", "))
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// printMetrics lists, by name and with its unit, every declared metric that
// was measured; a bounded metric also shows its direction and bound.
func printMetrics(w io.Writer, decls []metricDecl, vals map[string]float64) {
	for _, m := range decls {
		v, ok := vals[m.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("    %-36s %14.6g %-6s", m.Name, v, m.Unit)
		if m.Bound > 0 {
			line += fmt.Sprintf("  %s is better, bound %g%%", m.Better, m.Bound*100)
		}
		if m.Name == "client.op_p90_s" && v == 0 {
			line += "  (fewer than 10 samples beyond p90)"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// ---- BENCHMARK.json ----

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the benchmark declaration: %w", err)
	}
	var s benchSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.RunSeconds < 1 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return nil, fmt.Errorf("%s: run_seconds, workloads, end_to_end and per_layer are all required", path)
	}
	return &s, nil
}
