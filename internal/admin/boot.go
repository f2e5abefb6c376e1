package admin

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/expfmt"
	"gridftp.dev/instant/internal/obs/streamstats"
	"gridftp.dev/instant/internal/obs/tsdb"
)

// This file is the one way a binary gets its observability: Flags
// registers the flags, Start boots the planes they ask for, and the
// Daemon it returns hands the binary what its configs take (Obs and
// Streams) and closes everything in reverse order. The paper's endpoint
// comes up from one short install with nothing left to hand-assemble
// (§IV.D); so do the daemons' own status pages.
//
// Boot order — each step may use everything above it:
//
//	obs bundle       OBS_LOG_LEVEL, or debug to stderr with -verbose
//	stream registry  always (the -stall-timeout watchdog acts on its own)
//	recorder, alerts -admin: the flight recorder, which samples the bundle's
//	                 registry, and tsdb.DefaultRules over it
//	admin server     -admin: every plane above mounted, the sampler running,
//	                 /readyz failing until Ready
//	listener         -admin's socket, last: it serves a finished plane
//
// Close runs that bottom to top and then writes the -metrics dump, which
// reads only the bundle.

// Boot holds the parsed observability flags of one binary.
type Boot struct {
	verbose, metrics bool
	admin            string
	stallTimeout     time.Duration
}

// Flags registers the observability flags — the same set on every binary —
// on fs and returns where they will be parsed to.
func Flags(fs *flag.FlagSet) *Boot {
	b := &Boot{}
	fs.BoolVar(&b.verbose, "verbose", false, "structured debug logging to stderr")
	fs.BoolVar(&b.metrics, "metrics", false, "dump the metrics (the /metrics text) and the span forest to stderr on exit")
	fs.StringVar(&b.admin, "admin", "", "serve the HTTP admin plane on this address and hold until interrupted")
	fs.DurationVar(&b.stallTimeout, "stall-timeout", 0, "abort a data stream making no progress for this long (0 disables the stall watchdog)")
	return b
}

// Daemon is a booted process: the handles its configs take, and the
// lifecycle of everything behind them.
type Daemon struct {
	Obs     *obs.Obs
	Streams *streamstats.Registry
	// Admin is the admin server, nil without -admin.
	Admin *Server

	metrics bool // -metrics: Close ends with the exit dump
	ready   atomic.Bool
	stops   []func() // boot order; Close runs it backwards
}

// Start boots the planes the flags ask for, in the order at the top of
// this file.
func (b *Boot) Start() (*Daemon, error) {
	d := b.boot()
	if d.Admin == nil {
		return d, nil
	}
	addr, err := d.Admin.ListenAndServe(b.admin)
	if err != nil {
		d.Close()
		return nil, err
	}
	d.stops = append(d.stops, func() { d.Admin.Close() })
	fmt.Printf("admin plane: http://%s/\n", addr)
	return d, nil
}

// boot is Start without the socket.
func (b *Boot) boot() *Daemon {
	o := obs.FromEnv()
	if b.verbose {
		o = obs.New(os.Stderr, slog.LevelDebug)
	}
	d := &Daemon{Obs: o, metrics: b.metrics}

	// One registry for everything in the process, so both legs of a
	// third-party copy share a table and the scheduler's wire evidence
	// reads what the servers wrote.
	d.Streams = streamstats.New(streamstats.Options{Obs: o, Stall: b.stallTimeout})
	d.stops = append(d.stops, d.Streams.Start())

	if b.admin != "" {
		rec := tsdb.New(tsdb.Options{})
		planes := Planes{
			Recorder: rec, Engine: tsdb.NewEngine(rec, o, tsdb.DefaultRules()),
			Streams: d.Streams,
		}
		d.Admin = New(o, planes)
		d.Admin.AddReadiness("service", func() error {
			if !d.ready.Load() {
				return fmt.Errorf("not serving yet")
			}
			return nil
		})
		d.stops = append(d.stops, d.Admin.Start())
	}
	return d
}

// Ready flips /readyz to ok: the process's own service is up.
func (d *Daemon) Ready() { d.ready.Store(true) }

// Hold blocks until SIGINT or SIGTERM when the admin plane is up, so its
// endpoints stay scrapeable after the binary's own work is done; without
// -admin it returns at once.
func (d *Daemon) Hold() {
	if d.Admin == nil {
		return
	}
	fmt.Printf("\nholding for scrapes (curl http://%s/metrics); Ctrl-C to exit\n", d.Admin.Addr())
	AwaitInterrupt()
}

// Close stops everything Start started, last first, then writes the
// -metrics dump.
func (d *Daemon) Close() {
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
	d.stops = nil
	if d.metrics {
		d.writeDump(os.Stderr)
	}
}

// writeDump is the -metrics exit dump: the registry exactly as /metrics
// would have served it, then the span forest after a "# spans" line. Every
// line of the forest is a comment, so the whole dump is still valid text
// format and `grep -v '^#'` leaves the samples.
func (d *Daemon) writeDump(w io.Writer) {
	expfmt.WriteText(w, d.Obs.Registry())
	fmt.Fprintln(w, "# spans")
	if tree := strings.TrimSuffix(d.Obs.Tracer().TreeString(), "\n"); tree != "" {
		fmt.Fprintf(w, "# %s\n", strings.ReplaceAll(tree, "\n", "\n# "))
	}
}
