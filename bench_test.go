// Package instant's root benchmark harness: one benchmark per experiment
// in DESIGN.md's per-experiment index (E1-E13 plus ablations). Each
// benchmark runs the same measurement its experiment table reports —
// `go test -bench=. -benchmem` regenerates every figure's underlying
// numbers, and `cmd/benchreport` prints them as the paper-style tables.
//
// Custom metrics: transfer benchmarks report MB/s (simulated-wall-clock
// throughput over the shaped link); behavioural benchmarks (DCSC, setup,
// checkpoint) report the relevant count or duration.
package instant

import (
	"fmt"
	"testing"
	"time"

	"gridftp.dev/instant/internal/experiments"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/streamstats"
	"gridftp.dev/instant/internal/obs/tsdb"
)

// benchLink is the reference WAN for throughput benches: 40 MB/s
// bottleneck, 20 ms RTT, untuned 64 KiB windows.
var benchLink = netsim.LinkParams{
	Bandwidth:    40e6,
	RTT:          20 * time.Millisecond,
	StreamWindow: 64 * 1024,
}

const benchFileBytes = 1 << 20

func reportRate(b *testing.B, bytesPerSec float64) {
	b.Helper()
	b.ReportMetric(bytesPerSec/1e6, "MB/s")
}

// BenchmarkE1UsageAggregation drives the Fig 1 usage-stats pipeline: a
// fleet of servers batch-reporting a day of transfers.
func BenchmarkE1UsageAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE1Usage(experiments.E1Config{Servers: 500, Days: 7, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2ParallelStreams measures GridFTP throughput per stream count
// on the reference WAN, plus the SCP and stream-FTP baselines (§I claim).
func BenchmarkE2ParallelStreams(b *testing.B) {
	b.Run("scp", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			r, err := experiments.MeasureSCPRate(benchLink, benchFileBytes)
			if err != nil {
				b.Fatal(err)
			}
			last = r
		}
		reportRate(b, last)
	})
	b.Run("ftp-stream", func(b *testing.B) {
		var last float64
		for i := 0; i < b.N; i++ {
			r, err := experiments.MeasureWanRate(benchLink, benchFileBytes, 1, true)
			if err != nil {
				b.Fatal(err)
			}
			last = r
		}
		reportRate(b, last)
	})
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("gridftp-p%d", p), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.MeasureWanRate(benchLink, benchFileBytes, p, false)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportRate(b, last)
		})
	}
}

// BenchmarkE3DcauOverhead measures PROT C/S/P throughput on a CPU-bound
// link (§II.C's protection-cost claim).
func BenchmarkE3DcauOverhead(b *testing.B) {
	for _, row := range []struct {
		name string
		prot gridftp.ProtLevel
	}{
		{"prot-C-clear", gridftp.ProtClear},
		{"prot-S-integrity", gridftp.ProtSafe},
		{"prot-P-private", gridftp.ProtPrivate},
	} {
		b.Run(row.name, func(b *testing.B) {
			const size = 16 << 20
			var last float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.MeasureProtRate(size, row.prot)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			b.SetBytes(size)
			reportRate(b, last)
		})
	}
}

// BenchmarkE4Dcsc measures the DCSC fix path (Fig 5): a cross-CA
// third-party transfer with the source credential installed at the
// destination.
func BenchmarkE4Dcsc(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ok, err := experiments.MeasureDcscScenario(false, "credA->dst")
		if err != nil || !ok {
			b.Fatalf("DCSC scenario failed: ok=%v err=%v", ok, err)
		}
	}
}

// BenchmarkE5SetupSteps measures the live GCMU time-to-first-transfer
// (install -> myproxy-logon -> transfer).
func BenchmarkE5SetupSteps(b *testing.B) {
	var last time.Duration
	for i := 0; i < b.N; i++ {
		d, err := experiments.MeasureGCMUFirstTransfer()
		if err != nil {
			b.Fatal(err)
		}
		last = d
	}
	b.ReportMetric(float64(last.Milliseconds()), "ms/install-to-transfer")
}

// BenchmarkE6CheckpointRestart measures bytes moved for a fault-injected
// transfer with restart markers (§VI.B) vs without.
func BenchmarkE6CheckpointRestart(b *testing.B) {
	cfg := experiments.E6Config{
		FileBytes:     2 << 20,
		FaultFraction: 0.5,
		Link:          netsim.LinkParams{Bandwidth: 20e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22},
	}
	for _, mode := range []struct {
		name        string
		checkpoints bool
	}{
		{"markers", true},
		{"full-retransfer", false},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var moved int64
			for i := 0; i < b.N; i++ {
				task, err := experiments.MeasureCheckpointTask(cfg, mode.checkpoints)
				if err != nil {
					b.Fatal(err)
				}
				moved = task.BytesTransferred
			}
			b.ReportMetric(float64(moved)/float64(cfg.FileBytes), "bytes-moved/file-size")
		})
	}
}

// BenchmarkE7SmallFiles measures lots-of-small-files configurations
// (§II.A pipelining/concurrency).
func BenchmarkE7SmallFiles(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE7SmallFiles(experiments.E7Config{
			Files: 12, FileBytes: 16 << 10, RTT: 5 * time.Millisecond, Concurrency: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8Striping measures aggregate throughput per stripe count
// (§II.B striped server).
func BenchmarkE8Striping(b *testing.B) {
	cfg := experiments.E8Config{
		FileBytes: 2 << 20,
		PerLink:   netsim.LinkParams{Bandwidth: 8e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22},
	}
	for _, stripes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("stripes-%d", stripes), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.MeasureStripedRate(cfg, stripes)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportRate(b, last)
		})
	}
}

// BenchmarkE9ThirdParty measures direct third-party transfer vs the
// client-relayed baseline with a slow client uplink (§VII).
func BenchmarkE9ThirdParty(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE9ThirdParty(experiments.E9Config{
			FileBytes:  1 << 20,
			ServerLink: netsim.LinkParams{Bandwidth: 40e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22},
			ClientLink: netsim.LinkParams{Bandwidth: 4e6, RTT: 10 * time.Millisecond, StreamWindow: 1 << 22},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10Workflow runs the full GCMU Fig 3 workflow end to end.
func BenchmarkE10Workflow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE10Workflow(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11OAuthAudit runs both activation flows and the secret audit.
func BenchmarkE11OAuthAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE11OAuthAudit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12ControlSecurity probes the control channel invariants.
func BenchmarkE12ControlSecurity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunE12ControlSecurity(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14SmallFilesScheduler measures the hosted service's
// concurrent transfer scheduler on a many-small-files directory task over
// high-RTT links (§VI.A task orchestration): one session pair
// (TaskConcurrency=1, "sequential") vs the auto-sized fan-out ("scheduled")
// — which, since a pair pipelines its files, is also one pair at this
// size; the sub-benchmark names are the trajectory files' keys.
func BenchmarkE14SmallFilesScheduler(b *testing.B) {
	cfg := experiments.E14Config{
		Files:     24,
		FileBytes: 64 << 10,
		Link:      netsim.LinkParams{Bandwidth: 40e6, RTT: 10 * time.Millisecond, StreamWindow: 1 << 20},
	}
	for _, mode := range []struct {
		name        string
		concurrency int
	}{
		{"sequential", 1},
		{"scheduled", 0},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.MeasureSchedulerRun(cfg, mode.concurrency)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportRate(b, last)
		})
	}
}

// BenchmarkE15RecorderOverhead measures the time-series flight
// recorder's per-tick cost at production scale: one SampleRegistry pass
// over a registry wide enough to produce ~500 recorded series (gauges,
// counter rates, histogram rate+quantiles). The budget is <1% of the 1s
// sampling interval — recording history must be free relative to moving
// bytes — reported as pct-of-1s-interval.
func BenchmarkE15RecorderOverhead(b *testing.B) {
	reg := obs.NewRegistry()
	// 200 gauges + 100 counters (".rate") + 50 histograms (".rate",
	// ".p50", ".p90", ".p99") = 500 series per sampling pass.
	for i := 0; i < 200; i++ {
		reg.Gauge(fmt.Sprintf("bench.gauge.%03d", i)).Set(int64(i))
	}
	for i := 0; i < 100; i++ {
		reg.Counter(fmt.Sprintf("bench.counter.%03d", i)).Add(int64(i))
	}
	bounds := []float64{0.001, 0.01, 0.1, 1, 10}
	for i := 0; i < 50; i++ {
		h := reg.Histogram(fmt.Sprintf("bench.hist.%02d", i), bounds)
		for j := 0; j < 8; j++ {
			h.Observe(float64(j) / 10)
		}
	}
	rec := tsdb.New(tsdb.Options{})
	now := time.Unix(1_700_000_000, 0)
	rec.SampleRegistry(reg, now) // baseline pass
	if n := len(rec.SeriesNames()); n < 200 {
		b.Fatalf("baseline recorded %d series", n)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Touch the registry so every pass sees fresh deltas, as a live
		// daemon's would.
		reg.Counter("bench.counter.000").Inc()
		now = now.Add(time.Second)
		rec.SampleRegistry(reg, now)
	}
	b.StopTimer()
	if n := len(rec.SeriesNames()); n < 500 {
		b.Fatalf("recorded %d series, want >= 500", n)
	}
	perPass := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(perPass/1e9*100, "pct-of-1s-interval")
	b.ReportMetric(float64(len(rec.SeriesNames())), "series")
}

// BenchmarkAblationBlockSize sweeps MODE E block sizes.
func BenchmarkAblationBlockSize(b *testing.B) {
	cfg := experiments.AblationBlockSizeConfig{
		FileBytes: 4 << 20,
		Link:      netsim.LinkParams{Bandwidth: 60e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22},
	}
	for _, bs := range []int{16 << 10, 256 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("block-%dKiB", bs>>10), func(b *testing.B) {
			var last float64
			for i := 0; i < b.N; i++ {
				r, err := experiments.MeasureBlockSizeRate(cfg, bs)
				if err != nil {
					b.Fatal(err)
				}
				last = r
			}
			reportRate(b, last)
		})
	}
}

// BenchmarkAblationChannelCache measures data channel caching on vs off.
func BenchmarkAblationChannelCache(b *testing.B) {
	cfg := experiments.AblationCacheConfig{Files: 8, FileBytes: 32 << 10, RTT: 10 * time.Millisecond}
	for _, cached := range []bool{true, false} {
		name := "enabled"
		if !cached {
			name = "disabled"
		}
		b.Run(name, func(b *testing.B) {
			var last time.Duration
			for i := 0; i < b.N; i++ {
				d, err := experiments.MeasureCacheRun(cfg, cached)
				if err != nil {
					b.Fatal(err)
				}
				last = d
			}
			b.ReportMetric(float64(last.Milliseconds())/float64(cfg.Files), "ms/file")
		})
	}
}

// BenchmarkAblationAutotune measures the hosted service's parallelism
// auto-tuning against a fixed single stream (§VI.A).
func BenchmarkAblationAutotune(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationAutotune(experiments.AblationAutotuneConfig{
			FileBytes: 4 << 20,
			Link:      netsim.LinkParams{Bandwidth: 40e6, RTT: 10 * time.Millisecond, StreamWindow: 128 << 10},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationTransport measures TCP vs UDT (via the XIO layer) on a
// lossy, high-RTT path (§II.A [9]).
func BenchmarkAblationTransport(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAblationTransport(experiments.AblationTransportConfig{
			FileBytes: 2 << 20,
			Link: netsim.LinkParams{
				Bandwidth: 30e6, RTT: 20 * time.Millisecond, Loss: 0.001, StreamWindow: 64 << 10,
			},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE18StreamTelemetryOverhead prices the data-path X-ray: the
// same shaped-WAN parallel download with per-stream wire telemetry fully
// installed (both data-path ends instrumented, poller live at the
// daemons' default cadence) versus absent. The instrumented path adds
// two atomic updates per Read/Write against 128 KiB-scale blocks, so the
// budget is <=1% of achieved throughput — the deployment question is
// whether watching the wire slows the wire. The link is shaped (40 MB/s,
// wide windows) so pacing pins the transfer time and a genuine slowdown
// would surface as missed pacing slots rather than scheduler jitter;
// each side is best-of-paired-runs, which only ever discards runs the
// OS slowed down. pct-overhead reports the measured loss (small
// negative values are residual noise in the instrumented run's favor).
func BenchmarkE18StreamTelemetryOverhead(b *testing.B) {
	link := netsim.LinkParams{
		Bandwidth:    40e6,
		RTT:          2 * time.Millisecond,
		StreamWindow: 1 << 22,
	}
	const fileBytes = 8 << 20
	const parallelism = 4
	const pairs = 3
	var onBest, offBest float64
	for i := 0; i < b.N; i++ {
		onBest, offBest = 0, 0
		for p := 0; p < pairs; p++ {
			off, err := experiments.MeasureStreamTelemetryRate(link, fileBytes, parallelism, nil)
			if err != nil {
				b.Fatal(err)
			}
			reg := streamstats.New(streamstats.Options{Obs: obs.Nop(), Interval: 500 * time.Millisecond})
			stop := reg.Start()
			on, err := experiments.MeasureStreamTelemetryRate(link, fileBytes, parallelism, reg)
			stop()
			if err != nil {
				b.Fatal(err)
			}
			if on > onBest {
				onBest = on
			}
			if off > offBest {
				offBest = off
			}
		}
	}
	reportRate(b, onBest)
	pct := (offBest - onBest) / offBest * 100
	b.ReportMetric(pct, "pct-overhead")
}
