package main

import (
	"bytes"
	"errors"
	"go/parser"
	"go/token"
	"io"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestMedianAndQuartiles(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median odd = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v, want 0", got)
	}
	in := []float64{9, 1, 5}
	median(in)
	if in[0] != 9 || in[1] != 1 {
		t.Error("median reordered its input")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(ten)
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if !near(q1, 1.5) || !near(q3, 12) {
		t.Errorf("quartiles = %v, %v; want 1.5, 12", q1, q3)
	}
	if got := spread(ten); !near(got, 1) {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := quantile(ten, 0.9); !near(got, 9.1) {
		t.Errorf("quantile(1..10, 0.9) = %v, want 9.1", got)
	}
}

func TestTailEligibility(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {17, 0.9, false}, {1000, 0.99, true}, {999, 0.99, false},
	} {
		if got := tailEligible(c.n, c.q); got != c.want {
			t.Errorf("tailEligible(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestSixthMedianGoodput(t *testing.T) {
	// Six slices of a 6 s phase at 10, 20, 30, 40, 50 MB/s and one wild
	// slice: the median of the six ignores the outlier.
	var ops []opSample
	for i, rate := range []float64{10, 20, 30, 40, 50, 5000} {
		for k := 0; k < 4; k++ {
			ops = append(ops, opSample{start: float64(i) + 0.2*float64(k), seconds: 0.1, bytes: int64(rate * 1e6 * 0.1)})
		}
	}
	if got := sixthMedianGoodput(ops, 6); !near(got, 35) {
		t.Errorf("sixth median = %v, want 35", got)
	}
	// Slices no op started in are left out, not counted as zero.
	if got := sixthMedianGoodput(ops[:8], 6); !near(got, 15) {
		t.Errorf("two slices = %v, want 15", got)
	}
	// Within a slice it is bytes over summed op time, not a mean of rates.
	two := []opSample{{start: 0, seconds: 1, bytes: 1e6}, {start: 0.1, seconds: 3, bytes: 1e6}}
	if got := sixthMedianGoodput(two, 60); !near(got, 0.5) {
		t.Errorf("one slice = %v, want 2 MB / 4 s = 0.5", got)
	}
	if got := sixthMedianGoodput(nil, 6); got != 0 {
		t.Errorf("no ops = %v, want 0", got)
	}
}

func TestUnionSeconds(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]float64
		want float64
	}{
		{nil, 0},
		{[][2]float64{{0, 1}, {2, 3}}, 2},             // disjoint
		{[][2]float64{{0, 2}, {1, 3}}, 3},             // overlapping
		{[][2]float64{{0, 10}, {2, 3}, {4, 5}}, 10},   // nested
		{[][2]float64{{4, 5}, {0, 1}, {0.5, 4.5}}, 5}, // unsorted chain
	} {
		if got := unionSeconds(c.iv); !near(got, c.want) {
			t.Errorf("unionSeconds(%v) = %v, want %v", c.iv, got, c.want)
		}
	}
}

func TestSelfTimeIsSpanMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "op", Start: 0, End: 10},
		{ID: 2, Parent: 1, Op: 1, Name: "gridftp.get", Start: 1, End: 9},
		// Two overlapping dsi reads from parallel streams, one nested in the
		// other's interval, and one sticking out past its parent's end.
		{ID: 3, Parent: 2, Op: 1, Name: "dsi.readat", Start: 2, End: 5},
		{ID: 4, Parent: 2, Op: 1, Name: "dsi.readat", Start: 4, End: 6},
		{ID: 5, Parent: 2, Op: 1, Name: "dsi.readat", Start: 4.5, End: 5.5},
		{ID: 6, Parent: 2, Op: 1, Name: "dsi.close", Start: 8.5, End: 9.5},
		// Not under an op root: verification, and a set-up span.
		{ID: 7, Parent: 0, Op: 1, Name: "client.verify", Start: 10, End: 12},
		{ID: 8, Parent: 0, Op: 0, Name: "gridftp.dial_auth", Start: -5, End: -1},
	}
	self := selfSeconds(spans)
	if !near(self[1], 2) { // 10 - [1,9]
		t.Errorf("op self = %v, want 2", self[1])
	}
	if !near(self[2], 8-(4+0.5)) { // [2,6] ∪ [8.5,9] clipped to the parent
		t.Errorf("get self = %v, want 3.5", self[2])
	}
	if !near(self[3], 3) {
		t.Errorf("leaf self = %v, want its duration 3", self[3])
	}

	rows, opSeconds := layerBudget(spans)
	if !near(opSeconds, 10) {
		t.Fatalf("op seconds = %v, want 10", opSeconds)
	}
	var sum float64
	for _, r := range rows {
		if r.Name == "client.verify" || r.Name == "gridftp.dial_auth" {
			t.Errorf("budget includes %s, which is not under an op", r.Name)
		}
		if r.Name != "dsi.readat" && r.Name != "dsi.close" { // leaves under get overlap each other
			sum += r.Self
		}
	}
	// op self + get self + what get's children cover = op wall time.
	if !near(sum+4.5, 10) {
		t.Errorf("self times cover %v of 10 s", sum+4.5)
	}
	if got := unexplainedPct(rows, opSeconds); !near(got, 20) {
		t.Errorf("unexplained = %v%%, want 20", got)
	}
	if got := spanMedian(spans, "gridftp.dial_auth", span.seconds); !near(got, 4) {
		t.Errorf("set-up span median = %v, want 4", got)
	}
}

func TestRecorderNesting(t *testing.T) {
	rec := newRecorder(time.Now())
	rec.setOp(3)
	var wg sync.WaitGroup
	rec.call("op", func() error {
		return rec.call("gridftp.get", func() error {
			for i := 0; i < 4; i++ { // the decorator reports from the program's goroutines
				wg.Add(1)
				go func() {
					defer wg.Done()
					now := time.Now()
					rec.leaf("dsi.readat", now, now.Add(time.Millisecond), 7)
				}()
			}
			wg.Wait()
			return nil
		})
	})
	spans := rec.snapshot()
	if len(spans) != 6 {
		t.Fatalf("%d spans, want 6", len(spans))
	}
	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Op != 3 {
			t.Errorf("%s has op %d, want 3", s.Name, s.Op)
		}
	}
	get := byName["gridftp.get"][0]
	if get.Parent != byName["op"][0].ID {
		t.Error("get is not a child of op")
	}
	for _, leaf := range byName["dsi.readat"] {
		if leaf.Parent != get.ID || leaf.Bytes != 7 {
			t.Errorf("leaf %+v is not a 7-byte child of get", leaf)
		}
	}
	var nilRec *recorder // the untraced run
	called := false
	if err := nilRec.call("x", func() error { called = true; return io.EOF }); err != io.EOF || !called {
		t.Error("a nil recorder must just call")
	}
	nilRec.leaf("x", time.Now(), time.Now(), 0)
	nilRec.setOp(1)
}

// faultyStorage fails the calls the transparency test needs to see fail.
type faultyStorage struct{ dsi.Storage }

var errInjected = errors.New("injected")

func (f faultyStorage) Mkdir(user, p string) error { return errInjected }

func TestStorageDecoratorIsTransparent(t *testing.T) {
	mem := dsi.NewMemStorage()
	mem.AddUser(localUser)
	rec := newRecorder(time.Now())
	if timed(mem, nil) != dsi.Storage(mem) {
		t.Fatal("the untraced run must get the backend itself")
	}
	s := timed(faultyStorage{mem}, rec)

	data := payload(7, 1, 300<<10)
	f, err := s.Create(localUser, "/a.bin")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(interface{ Preallocate(int64) }); !ok {
		t.Error("the decorated file hides Preallocate, so the server would take another path")
	}
	f.(interface{ Preallocate(int64) }).Preallocate(int64(len(data)))
	for off := 0; off < len(data); off += 64 << 10 {
		end := min(off+64<<10, len(data))
		if n, err := f.WriteAt(data[off:end], int64(off)); err != nil || n != end-off {
			t.Fatalf("WriteAt = %d, %v", n, err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Same bytes through the decorator as straight from the backend.
	for _, st := range []dsi.Storage{s, mem} {
		g, err := st.Open(localUser, "/a.bin")
		if err != nil {
			t.Fatal(err)
		}
		got, err := dsi.ReadAll(g)
		g.Close()
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("read back %d bytes, err %v; want the %d written", len(got), err, len(data))
		}
	}
	g, _ := s.Open(localUser, "/a.bin")
	if size, _ := g.Size(); size != int64(len(data)) {
		t.Errorf("Size = %d, want %d", size, len(data))
	}
	// Same errors: a short read at the tail, the backend's sentinels, and an
	// arbitrary backend failure, all unwrapped and unchanged.
	buf := make([]byte, 100)
	if n, err := g.ReadAt(buf, int64(len(data)-10)); n != 10 || err != io.EOF {
		t.Errorf("tail ReadAt = %d, %v; want 10, EOF", n, err)
	}
	g.Close()
	if _, err := s.Open(localUser, "/missing"); !errors.Is(err, dsi.ErrNotExist) {
		t.Errorf("Open(missing) = %v, want ErrNotExist", err)
	}
	if _, err := s.Stat("nobody", "/"); !errors.Is(err, dsi.ErrNoUser) {
		t.Errorf("Stat(unknown user) = %v, want ErrNoUser", err)
	}
	if err := s.Mkdir(localUser, "/d"); err != errInjected {
		t.Errorf("Mkdir = %v, want the backend's error itself", err)
	}
	if fis, err := s.List(localUser, "/"); err != nil || len(fis) != 1 || fis[0].Name != "a.bin" {
		t.Errorf("List = %v, %v", fis, err)
	}
	if err := s.Rename(localUser, "/a.bin", "/b.bin"); err != nil {
		t.Error(err)
	}
	if err := s.Remove(localUser, "/b.bin"); err != nil {
		t.Error(err)
	}
	if _, err := mem.Stat(localUser, "/b.bin"); !errors.Is(err, dsi.ErrNotExist) {
		t.Errorf("the backend still has the removed file: %v", err)
	}

	// One leaf span per call, with the bytes moved.
	count := map[string]int{}
	var written int64
	for _, sp := range rec.snapshot() {
		count[sp.Name]++
		if sp.Name == "dsi.writeat" {
			written += sp.Bytes
		}
	}
	want := map[string]int{
		"dsi.create": 1, "dsi.writeat": 5, "dsi.close": 3, "dsi.open": 3, "dsi.readat": 2,
		"dsi.stat": 1, "dsi.mkdir": 1, "dsi.list": 1, "dsi.rename": 1, "dsi.remove": 1,
	}
	for name, n := range want {
		if count[name] != n {
			t.Errorf("%d %s spans, want %d", count[name], name, n)
		}
	}
	if written != int64(len(data)) {
		t.Errorf("writeat spans carry %d bytes, want %d", written, len(data))
	}
}

func TestPayloadAndSizesComeFromTheSeed(t *testing.T) {
	a, b := payload(1, 1, 1001), payload(1, 1, 1001)
	if !bytes.Equal(a, b) {
		t.Error("same seed, different bytes")
	}
	if bytes.Equal(a, payload(2, 1, 1001)) || bytes.Equal(a, payload(1, 2, 1001)) {
		t.Error("seed or stream does not change the bytes")
	}
	s1 := hostedSizes(1, 24, 16<<10, 256<<10)
	if got := hostedSizes(1, 24, 16<<10, 256<<10); !slices.Equal(s1, got) {
		t.Error("same seed, different sizes")
	}
	var totals []float64
	for seed := int64(1); seed <= 20; seed++ {
		sizes := hostedSizes(seed, 24, 16<<10, 256<<10)
		total := 0
		for _, n := range sizes {
			if n < 16<<10 || n > 256<<10 {
				t.Fatalf("seed %d: size %d outside [16 KiB, 256 KiB]", seed, n)
			}
			total += n
		}
		totals = append(totals, float64(total))
	}
	sort.Float64s(totals)
	if totals[19]/totals[0] > 1.05 {
		t.Errorf("directory totals range %v..%v across seeds; stratifying should hold them within a few percent", totals[0], totals[19])
	}
	if slices.Equal(s1, hostedSizes(2, 24, 16<<10, 256<<10)) {
		t.Error("the seed does not change the sizes")
	}
}

func TestSinkCannotVerifyBeforeTheOp(t *testing.T) {
	data := payload(3, 1, 4096)
	sink := sinkFile(len(data))
	if sink.verify(data) == nil {
		t.Error("an empty sink verified")
	}
	sink.WriteAt(data, 0)
	if err := sink.verify(data); err != nil {
		t.Error(err)
	}
	sink.wipe()
	if sink.verify(data) == nil {
		t.Error("a wiped sink verified")
	}
	sink.WriteAt(data[:4095], 0)
	if sink.verify(data) == nil {
		t.Error("a short sink verified")
	}
	if _, err := sink.WriteAt(data, 1); err == nil {
		t.Error("a write past the sink's capacity was accepted")
	}
}

func TestVerdicts(t *testing.T) {
	for _, c := range []struct {
		worse, noise, bound float64
		want                string
	}{
		{0.02, 0.01, 0.10, "unchanged"},
		{0.12, 0.01, 0.10, "regressed"},
		{-0.12, 0.01, 0.10, "improved"},
		{0.50, 0.11, 0.10, "unresolved"}, // spread wider than the bound: no verdict either way
	} {
		if got := verdict(c.worse, c.noise, c.bound); got != c.want {
			t.Errorf("verdict(%v, %v, %v) = %s, want %s", c.worse, c.noise, c.bound, got, c.want)
		}
	}
}

func TestCompareLabelsEachPair(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(p50, goodput []float64) *resultFile {
		f := newResultFile(options{})
		for i := range p50 {
			f.Seeds = append(f.Seeds, int64(i))
			f.add("lan_get_clear", map[string]float64{"op_p50_s": p50[i], "goodput_MBps": goodput[i], "netsim.conns_per_op": 17})
		}
		f.finish()
		return f
	}
	a := mk([]float64{1, 1.01, 0.99, 1, 1}, []float64{100, 101, 99, 100, 100})
	b := mk([]float64{2, 2.01, 1.99, 2, 2}, []float64{100, 160, 40, 100, 100})
	var out bytes.Buffer
	if code := compareResults(spec, a, b, &out); code != 1 {
		t.Errorf("exit %d, want 1 for a regression", code)
	}
	text := out.String()
	for _, want := range []string{"regressed", "unresolved"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
	out.Reset()
	if code := compareResults(spec, a, a, &out); code != 0 || strings.Contains(out.String(), "regressed") || strings.Contains(out.String(), "improved") {
		t.Errorf("a result compared with itself: exit %d\n%s", code, out.String())
	}
}

// smokeSizes keep every workload's op in the millisecond range.
var smokeSizes = sizes{
	wanFresh: 64 << 10, wanStream: 256 << 10, lan: 1 << 20,
	hostedFiles: 3, hostedLo: 4 << 10, hostedHi: 16 << 10,
	lanWarmups: 1,
}

// TestSmokeMetricNamesMatchDeclaration runs every workload briefly, untraced
// and traced, plus the probes, and checks that what the benchmark emits is
// exactly what BENCHMARK.json declares — in both directions.
func TestSmokeMetricNamesMatchDeclaration(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark builds %d", len(spec.Workloads), len(workloads))
	}
	out := t.TempDir()
	var mu sync.Mutex
	emitted := map[string]map[string]float64{} // workload → metrics of both children
	probed := map[string]float64{}

	t.Run("run", func(t *testing.T) {
		// The shaped workloads sleep in the simulator, so all the children run
		// side by side; process-wide counters are meaningless here, names are not.
		for _, w := range spec.Workloads {
			if _, ok := findWorkload(w.Name); !ok {
				t.Errorf("BENCHMARK.json names workload %q, which the benchmark does not build", w.Name)
				continue
			}
			for _, mode := range []string{"measure", "traced"} {
				w, mode := w, mode
				t.Run(w.Name+"/"+mode, func(t *testing.T) {
					t.Parallel()
					res, err := runChild(childConfig{
						workload: w.Name, mode: mode, seed: 1, seconds: 0.5,
						outDir: out, started: time.Now(), sz: smokeSizes,
					}, io.Discard)
					if err != nil {
						t.Fatal(err)
					}
					if res.Failed != 0 || res.Attempted == 0 {
						t.Fatalf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Errors)
					}
					mu.Lock()
					defer mu.Unlock()
					if emitted[w.Name] == nil {
						emitted[w.Name] = map[string]float64{}
					}
					for k, v := range res.Metrics {
						emitted[w.Name][k] = v
					}
				})
			}
		}
		t.Run("probes", func(t *testing.T) {
			t.Parallel()
			m, err := runProbes(1, smokeSizes, out)
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			for k, v := range m {
				probed[k] = v
			}
		})
	})

	declared := map[string]bool{}
	for _, m := range append(append([]metricDecl{}, spec.EndToEnd...), spec.PerLayer...) {
		if declared[m.Name] {
			t.Errorf("%s is declared twice", m.Name)
		}
		declared[m.Name] = true
	}
	for workload, metrics := range emitted {
		metrics["client.trace_overhead_pct"] = 0 // the parent's quotient of the two children
		for k, v := range probed {
			metrics[k] = v
		}
		for name := range declared {
			if _, ok := metrics[name]; !ok {
				t.Errorf("%s: %s is declared in BENCHMARK.json but not emitted", workload, name)
			}
		}
		for name := range metrics {
			if !declared[name] {
				t.Errorf("%s: %s is emitted but not declared in BENCHMARK.json", workload, name)
			}
		}
	}
	for _, m := range spec.EndToEnd {
		for workload, metrics := range emitted {
			if metrics[m.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v; it must never be 0", workload, m.Name, metrics[m.Name])
			}
		}
	}
	if traces, _ := filepath.Glob(filepath.Join(out, "*.trace.json")); len(traces) != len(spec.Workloads) {
		t.Errorf("the traced children wrote %d trace files, want one per workload: %v", len(traces), traces)
	}
}

// TestImportsStayOnTheDocumentedSurface keeps the benchmark compiling across
// refactors: it may import only the packages README.md lists as its frozen
// surface, and nothing else under internal/.
func TestImportsStayOnTheDocumentedSurface(t *testing.T) {
	const module = "gridftp.dev/instant/"
	allowed := map[string]bool{}
	for _, p := range []string{"netsim", "gsi", "dsi", "authz", "ftp", "gridftp", "pam", "gcmu", "transfer", "obs"} {
		allowed[module+"internal/"+p] = true
	}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no source files: %v", err)
	}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case strings.HasPrefix(path, module):
				if !allowed[path] {
					t.Errorf("%s imports %s, which is outside the benchmark's documented surface", file, path)
				}
			case strings.Contains(strings.SplitN(path, "/", 2)[0], "."):
				t.Errorf("%s imports %s: the benchmark is standard library plus this module only", file, path)
			}
		}
	}
}
