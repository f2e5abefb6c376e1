package experiments

import (
	"fmt"
	"time"

	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/transfer"
	"gridftp.dev/instant/internal/world"
)

// E14Config parameterizes the transfer-scheduler experiment: a directory
// of many small files over a high-RTT path, the workload class where
// control-channel latency dominates a task that moves one file at a time.
type E14Config struct {
	Files     int
	FileBytes int
	// Link shapes every hop of the hosted triangle (service to both
	// sites plus the inter-site path).
	Link netsim.LinkParams
}

// DefaultE14 moves 50 x 64 KiB files over 20 ms RTT links.
func DefaultE14() E14Config {
	return E14Config{
		Files:     50,
		FileBytes: 64 << 10,
		Link:      netsim.LinkParams{Bandwidth: 40e6, RTT: 20 * time.Millisecond, StreamWindow: 1 << 20},
	}
}

// runE14Once runs one directory task at the given TaskConcurrency
// (0 = auto-sized) and returns the finished task and its wall-clock time.
// With warm set the measured task is the world's second: an unmeasured task
// between the same endpoints runs first and leaves its session pair parked.
func runE14Once(cfg E14Config, concurrency int, warm bool) (*transfer.Task, time.Duration, error) {
	w, err := world.NewHosted(transfer.Config{TaskConcurrency: concurrency}, gcmu.Options{})
	if err != nil {
		return nil, 0, err
	}
	defer w.Close()
	w.Net.SetLink("globusonline", "siteA", cfg.Link)
	w.Net.SetLink("globusonline", "siteB", cfg.Link)
	w.Net.SetLink("siteA", "siteB", cfg.Link)
	if err := w.Activate(); err != nil {
		return nil, 0, err
	}
	if err := w.A.Storage.Mkdir(world.User, "/many"); err != nil {
		return nil, 0, err
	}
	for i := 0; i < cfg.Files; i++ {
		if err := w.Put(fmt.Sprintf("/many/f%03d.bin", i), pattern(cfg.FileBytes)); err != nil {
			return nil, 0, err
		}
	}
	if warm {
		if _, _, err := hostedTask(w, "/many", "/before"); err != nil {
			return nil, 0, err
		}
	}
	return hostedTask(w, "/many", "/many")
}

// RunE14Scheduler measures the hosted service's scheduler on the
// many-small-files directory task (§VI.A auto-tuning, extended to task
// orchestration): one session pair, the auto-sized fan-out, and the
// largest fan-out auto-sizing can choose, eight pairs — each a world's first
// task — and then what a hosted service mostly sees: the second task between
// the same two endpoints, which adopts the first one's parked pair.
func RunE14Scheduler(cfg E14Config) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "Transfer scheduler: many small files over a high-RTT path",
		Paper:   `§VI.A: the hosted service "automatically tune[s] GridFTP transfer options for high performance" — here the task-level fan-out across control-session pairs; §II.A: pipelining and channel caching make lots of small files viable`,
		Columns: []string{"scheduling", "workers", "files", "elapsed", "throughput", "vs one pair"},
	}
	var onePair time.Duration
	for _, mode := range []struct {
		label       string
		concurrency int
		warm        bool
	}{
		{"one pair (K=1)", 1, false},
		{"auto-sized (auto K)", 0, false},
		{"eight pairs (K=8)", 8, false},
		{"second task, same endpoints (auto K)", 0, true},
	} {
		done, elapsed, err := runE14Once(cfg, mode.concurrency, mode.warm)
		if err != nil {
			return nil, err
		}
		if onePair == 0 {
			onePair = elapsed
		}
		total := int64(cfg.Files * cfg.FileBytes)
		t.AddRow(mode.label, fmt.Sprintf("%d", done.Workers),
			fmt.Sprintf("%d x %d KiB", cfg.Files, cfg.FileBytes>>10),
			elapsed.Round(time.Millisecond).String(),
			mbps(rate(total, elapsed)), fmt.Sprintf("%.2fx", float64(onePair)/float64(elapsed)))
	}
	t.Note("every hop at %v RTT: a pair keeps a window of files queued at both servers, so a file costs its data, not a round trip; auto K is one pair per 4 MiB pending, so below that it coincides with K=1, and more pairs only add their own set-up; the second task finds the first one's session pair parked and still wired, and pays for its plan and its files only",
		cfg.Link.RTT)
	return t, nil
}
