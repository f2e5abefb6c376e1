package transfer

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

// slowLinks puts every hop of the hosted-transfer triangle (service to
// both sites, plus the inter-site path) on a long fat link, so per-file
// control round trips dominate a sequential small-files task.
func slowLinks(w *world, rtt time.Duration) {
	p := netsim.LinkParams{Bandwidth: 40e6, RTT: rtt, StreamWindow: 1 << 20}
	w.nw.SetLink("globusonline", "siteA", p)
	w.nw.SetLink("globusonline", "siteB", p)
	w.nw.SetLink("siteA", "siteB", p)
}

// makeTree creates a flat directory of n patterned files on the source.
func makeTree(t *testing.T, w *world, dir string, n, fileSize int) {
	t.Helper()
	if err := w.epA.Storage.Mkdir("alice", dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f, err := w.epA.Storage.Create("alice", fmt.Sprintf("%s/f%03d.bin", dir, i))
		if err != nil {
			t.Fatal(err)
		}
		dsi.WriteAll(f, pattern(fileSize))
		f.Close()
	}
}

func runDirTask(t *testing.T, w *world, dir string) (*Task, time.Duration) {
	t.Helper()
	start := time.Now()
	task, err := w.svc.Submit("alice", "siteA", dir, "siteB", dir)
	if err != nil {
		t.Fatal(err)
	}
	done, err := w.svc.Wait(task.ID, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskSucceeded {
		t.Fatalf("task: %s (%s)", done.Status, done.Error)
	}
	return done, time.Since(start)
}

// TestSmallFilesCostDataNotRoundTrips is the scheduler's acceptance
// scenario: 50 x 64 KiB files over 20 ms RTT links. A worker keeps a window
// of files queued at both servers, so the task costs its set-up (pair, plan,
// wiring) plus the data — 26 round trips at most for a cold task (elapsed ÷
// RTT; 17 measured, a few more under the race detector), where one file at
// a time cost 111 and an eight-pair fan-out 44 — and 16 at most (9–10
// measured) for the next task between the same endpoints, which adopts the
// parked pair, still wired, and pays one flight for its plan and one for its
// files. That
// holds on one pair, on the auto-sized fan-out — which for a directory below
// one window is one pair — and on two pairs, whose second pair dials while
// the first already has every file queued. It also proves the control-channel
// diet: zero per-file SIZE commands (sizes ride the listing's facts), asserted
// via the per-verb command counters.
func TestSmallFilesCostDataNotRoundTrips(t *testing.T) {
	const nFiles = 50
	const fileSize = 64 << 10
	const rtt = 20 * time.Millisecond
	const coldBudget, warmBudget = 26, 16

	for _, tc := range []struct {
		name        string
		concurrency int
		workers     int
	}{
		{"one pair", 1, 1},
		{"auto-sized", 0, 1},
		{"two pairs", 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// run moves the directory twice in one world — a cold task, then
			// a warm one to another destination — and returns what each cost.
			run := func() (o *obs.Obs, cold, warm float64) {
				o = obs.Nop()
				w := buildWorld(t, Config{Obs: o, TaskConcurrency: tc.concurrency}, false)
				slowLinks(w, rtt)
				activateBoth(t, w)
				makeTree(t, w, "/many", nFiles, fileSize)
				task := func(dst string) float64 {
					start := time.Now()
					task, err := w.svc.Submit("alice", "siteA", "/many", "siteB", dst)
					if err != nil {
						t.Fatal(err)
					}
					done, err := w.svc.Wait(task.ID, 2*time.Minute)
					elapsed := time.Since(start)
					if err != nil || done.Status != TaskSucceeded {
						t.Fatalf("task to %s: %+v, %v", dst, done, err)
					}
					if done.CompletedFiles != nFiles {
						t.Fatalf("completed %d of %d", done.CompletedFiles, nFiles)
					}
					if done.Workers != tc.workers || done.Attempts != 1 {
						t.Fatalf("%d workers in %d attempts, want %d in 1", done.Workers, done.Attempts, tc.workers)
					}
					rtts := float64(elapsed) / float64(rtt)
					t.Logf("%s: %v (%.0f round trips, %d workers)", dst, elapsed.Round(time.Millisecond), rtts, done.Workers)
					return rtts
				}
				cold = task("/many")
				sessions := o.Metrics.Counter("gridftp.server.sessions_total").Value()
				warm = task("/again")
				if opened := o.Metrics.Counter("gridftp.server.sessions_total").Value() - sessions; opened != int64(2*(tc.workers-1)) {
					t.Errorf("the second task opened %d sessions, want %d: its primary pair is the parked one", opened, 2*(tc.workers-1))
				}
				return o, cold, warm
			}
			// The budgets are wall-clock on a shared machine: a run over one
			// gets one more try, and the better of the two is judged.
			o, cold, warm := run()
			if cold > coldBudget || warm > warmBudget {
				_, cold2, warm2 := run()
				cold, warm = min(cold, cold2), min(warm, warm2)
			}
			if cold > coldBudget {
				t.Errorf("cold task took %.0f round trips for %d files, budget %d", cold, nFiles, coldBudget)
			}
			if warm > warmBudget {
				t.Errorf("warm task took %.0f round trips for %d files, budget %d", warm, nFiles, warmBudget)
			}

			// Zero per-file SIZE commands; the counters are live (RETR fired
			// once per file of each task), so zero means "not issued", not
			// "not counted".
			reg := o.Metrics
			if v := reg.Counter(obs.Name("gridftp.client.commands", "cmd=SIZE")).Value(); v != 0 {
				t.Errorf("issued %d SIZE commands, want 0", v)
			}
			if v := reg.Counter(obs.Name("gridftp.client.commands", "cmd=RETR")).Value(); v != 2*nFiles {
				t.Errorf("counted %d RETR commands, want %d", v, 2*nFiles)
			}

			// Scheduler observability, per task: one data span per file —
			// under the task span on one pair, under per-worker child spans
			// when the task fans out — plus the queue-wait histogram and the
			// active-transfers gauge having seen every file come and go.
			tasks := 0
			for _, taskRoot := range o.Trace.Roots() {
				if taskRoot.Name != "task" {
					continue
				}
				tasks++
				workerSpans, dataSpans := 0, 0
				for _, child := range o.Trace.Children(taskRoot.ID) {
					switch child.Name {
					case "data":
						dataSpans++
					case "worker":
						workerSpans++
						for _, g := range o.Trace.Children(child.ID) {
							if g.Name == "data" {
								dataSpans++
							}
						}
					}
				}
				wantWorkerSpans := tc.workers
				if tc.workers == 1 {
					wantWorkerSpans = 0 // one pair: the task span owns the data spans
				}
				if workerSpans != wantWorkerSpans {
					t.Errorf("%d worker spans, want %d:\n%s", workerSpans, wantWorkerSpans, o.Trace.TreeString())
				}
				if dataSpans != nFiles {
					t.Errorf("%d data spans, want %d", dataSpans, nFiles)
				}
			}
			if tasks != 2 {
				t.Errorf("%d task spans, want 2", tasks)
			}
			if c := reg.Histogram("transfer.queue_wait_seconds", obs.DefaultDurationBuckets).Count(); c != 2*nFiles {
				t.Errorf("queue_wait_seconds observed %d waits, want %d", c, 2*nFiles)
			}
			if v := reg.Gauge("transfer.active_transfers").Value(); v != 0 {
				t.Errorf("active_transfers gauge left at %d, want 0", v)
			}
		})
	}
}

// TestWorkerCount: the fan-out follows the bytes one pair's window cannot
// cover, not the file count.
func TestWorkerCount(t *testing.T) {
	const window = pipelineWindow
	for _, tc := range []struct {
		name        string
		concurrency int
		files       int
		bytes       int64
		want        int
	}{
		{"below one window", 0, 500, window - 1, 1},
		{"exactly one window", 0, 500, window, 1},
		{"just over one window", 0, 500, window + 1, 2},
		{"eight windows", 0, 500, 8 * window, 8},
		{"a hundred windows", 0, 500, 100 * window, maxTaskWorkers},
		{"three files of 1 GiB", 0, 3, 3 << 30, 3},
		{"nothing pending", 0, 0, 0, 1},
		{"TaskConcurrency wins", 4, 500, 1000, 4},
		{"TaskConcurrency above the cap is honoured", 12, 500, 1000, 12},
		{"TaskConcurrency still clamps to pending", 4, 2, 100 * window, 2},
	} {
		s := &Service{cfg: Config{TaskConcurrency: tc.concurrency}}
		if got := s.workerCount(tc.files, tc.bytes); got != tc.want {
			t.Errorf("%s: workerCount(%d files, %d bytes) = %d, want %d", tc.name, tc.files, tc.bytes, got, tc.want)
		}
	}
}

// TestConcurrentSubmitsShareService drives N simultaneous Submits through
// one service instance with a small MaxActiveTransfers, exercising the
// global admission semaphore and the shared task map under -race.
func TestConcurrentSubmitsShareService(t *testing.T) {
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o, MaxActiveTransfers: 2}, false)
	activateBoth(t, w)

	const nTasks = 4
	payloads := make([][]byte, nTasks)
	for i := range payloads {
		payloads[i] = pattern(128<<10 + i*1000)
		w.putSrc(t, fmt.Sprintf("/con%d.bin", i), payloads[i])
	}

	var wg sync.WaitGroup
	ids := make([]string, nTasks)
	errs := make([]error, nTasks)
	for i := 0; i < nTasks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			path := fmt.Sprintf("/con%d.bin", i)
			task, err := w.svc.Submit("alice", "siteA", path, "siteB", path)
			if err != nil {
				errs[i] = err
				return
			}
			ids[i] = task.ID
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i, id := range ids {
		done, err := w.svc.Wait(id, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if done.Status != TaskSucceeded {
			t.Fatalf("task %d: %s (%s)", i, done.Status, done.Error)
		}
		if !bytes.Equal(w.readDst(t, fmt.Sprintf("/con%d.bin", i)), payloads[i]) {
			t.Fatalf("task %d content mismatch", i)
		}
	}
	if v := o.Metrics.Gauge("transfer.active_transfers").Value(); v != 0 {
		t.Errorf("active_transfers gauge left at %d, want 0", v)
	}
	if v := o.Metrics.Gauge("transfer.active_transfers_peak").Value(); v > 2 {
		t.Errorf("active_transfers peaked at %d, semaphore cap is 2", v)
	}
}

// TestSchedulerCheckpointResume kills one file mid-flight while several
// workers are transferring: the per-file completion set must resume only
// the unfinished files, never re-transferring completed ones, and the
// failed file must restart from its saved markers rather than byte 0.
func TestSchedulerCheckpointResume(t *testing.T) {
	const nFiles = 16
	const fileSize = 128 << 10
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o, TaskConcurrency: 4, RetryDelay: 10 * time.Millisecond}, false)
	activateBoth(t, w)
	makeTree(t, w, "/ckpt", nFiles, fileSize)
	// Slow the data path so markers land before the fault trips.
	w.nw.SetLink("siteA", "siteB", netsim.LinkParams{
		Bandwidth: 30e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22,
	})
	w.faultB.Arm(fileSize / 2) // first file opened after arming dies halfway

	done, _ := runDirTask(t, w, "/ckpt")
	if done.Attempts < 2 {
		t.Fatalf("fault did not trigger a retry (attempts=%d)", done.Attempts)
	}
	if done.CompletedFiles != nFiles {
		t.Fatalf("completed %d of %d", done.CompletedFiles, nFiles)
	}
	// Every file completed exactly once across all attempts: a completed
	// file is never queued again, so the files counter hits nFiles, not
	// nFiles plus re-transfers.
	if v := o.Metrics.Counter("transfer.files_total").Value(); v != nFiles {
		t.Errorf("transfer.files_total = %d, want %d (files re-transferred?)", v, nFiles)
	}
	// And the failed file resumed from markers: total bytes moved stays
	// well under re-sending even one extra full file list.
	total := int64(nFiles * fileSize)
	if done.BytesTransferred > total+total/2 {
		t.Errorf("resume ineffective: moved %d of %d total", done.BytesTransferred, total)
	}
	for i := 0; i < nFiles; i++ {
		path := fmt.Sprintf("/ckpt/f%03d.bin", i)
		f, err := w.epB.Storage.Open("alice", path)
		if err != nil {
			t.Fatalf("%s missing at destination: %v", path, err)
		}
		got, _ := dsi.ReadAll(f)
		f.Close()
		if !bytes.Equal(got, pattern(fileSize)) {
			t.Fatalf("file %d mismatch", i)
		}
	}
}

// gatedMkdir is a Storage whose Mkdir waits for the gate; it counts the files
// created while the gate was still shut.
type gatedMkdir struct {
	dsi.Storage
	gate  chan struct{}
	early atomic.Int32
}

func (g *gatedMkdir) Mkdir(user, p string) error {
	<-g.gate
	return g.Storage.Mkdir(user, p)
}

func (g *gatedMkdir) Create(user, p string) (dsi.File, error) {
	select {
	case <-g.gate:
	default:
		g.early.Add(1)
	}
	return g.Storage.Create(user, p)
}

// TestNoWorkerStoresAheadOfTheTree: the destination tree's MKDs travel on
// the primary pair, and a second worker's STOR travels on a session of its
// own, where nothing on the wire keeps it behind them. With the destination
// slow to make directories, the second pair is dialled and idle long before
// the first MKD is answered; its worker has to wait for that answer, or its
// STOR finds no directory, fails the attempt and costs the task a retry.
func TestNoWorkerStoresAheadOfTheTree(t *testing.T) {
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o, TaskConcurrency: 2}, false)
	activateBoth(t, w)
	slow := &gatedMkdir{Storage: w.faultB.Storage, gate: make(chan struct{})}
	w.faultB.Storage = slow
	files := distinctTree(t, w, "/tree", 6, 20<<10)

	task, err := w.svc.Submit("alice", "siteA", "/tree", "siteB", "/tree")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "both workers' session pairs", func() bool { return sessionsActive(o) == 4 })
	time.Sleep(100 * time.Millisecond) // a worker that does not wait has written its STOR by now
	close(slow.gate)
	done, err := w.svc.Wait(task.ID, time.Minute)
	if err != nil || done.Status != TaskSucceeded {
		t.Fatalf("task: %+v, %v", done, err)
	}
	if n := slow.early.Load(); n != 0 || done.Attempts != 1 {
		t.Errorf("%d files were stored before their directory was made, and the task took %d attempts; want 0 and 1", n, done.Attempts)
	}
	verifyTree(t, w, files)
}
