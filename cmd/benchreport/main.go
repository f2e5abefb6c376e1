// Command benchreport regenerates every table and figure of the Instant
// GridFTP reproduction (experiments.All: E1-E12, E14 and four ablations;
// see DESIGN.md for the per-experiment index) and prints them as aligned
// text tables.
//
// Usage:
//
//	benchreport                        # run everything, in the paper's order
//	benchreport -exp e2                # run one experiment
//	benchreport -list                  # list experiment ids, in the paper's order
//	benchreport -trace-timeline src[,src...]
//	                                   # stitch span exports (files or /debug/spans
//	                                   # URLs) into per-trace Gantt timelines
//	benchreport -trace-timeline a.json,b.json -trace 0123..ef
//	                                   # render one specific trace id
//	benchreport -dashboard http://127.0.0.1:9970
//	                                   # live telemetry dashboard: sparklines
//	                                   # per series, active alerts, stream health
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gridftp.dev/instant/internal/experiments"
	"gridftp.dev/instant/internal/obs/collector"
)

func main() {
	exp := flag.String("exp", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	timeline := flag.String("trace-timeline", "", "comma-separated span-export sources (JSON files or http(s):// /debug/spans URLs); stitch them and render per-trace timelines")
	traceID := flag.String("trace", "", "with -trace-timeline: render only this trace id")
	dashboard := flag.String("dashboard", "", "render a terminal telemetry dashboard from an admin-plane base URL (sparklines, alerts, stream health) or a saved /debug/timeseries JSON file")
	flag.Parse()

	// The read-something-and-render-it modes, first one asked for wins.
	for _, mode := range []struct {
		arg string
		run func(string) error
	}{
		{*dashboard, renderDashboard},
		{*timeline, func(srcs string) error { return renderTimelines(strings.Split(srcs, ","), *traceID) }},
	} {
		if mode.arg == "" {
			continue
		}
		if err := mode.run(mode.arg); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *list {
		for _, e := range experiments.All {
			fmt.Println(e.ID)
		}
		return
	}

	if *exp != "" {
		for _, e := range experiments.All {
			if e.ID != strings.ToLower(*exp) {
				continue
			}
			if err := runOne(e.Run); err != nil {
				fmt.Fprintf(os.Stderr, "error: %v\n", err)
				os.Exit(1)
			}
			return
		}
		fmt.Fprintf(os.Stderr, "unknown experiment %q (use -list)\n", *exp)
		os.Exit(2)
	}

	fmt.Println("Instant GridFTP reproduction — full experiment report")
	fmt.Println("======================================================")
	start := time.Now()
	failed := 0
	for _, e := range experiments.All {
		if err := runOne(e.Run); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			failed++
		}
	}
	fmt.Printf("report complete in %v (%d experiments failed)\n",
		time.Since(start).Round(time.Second), failed)
	if failed > 0 {
		os.Exit(1)
	}
}

// renderTimelines loads span exports from each source (a JSON file, or an
// http(s):// URL of an admin /debug/spans endpoint), stitches them in a
// collector, and renders a Gantt-style timeline per trace: one row per
// span grouped by process, critical-path spans marked '*', and uncovered
// gaps listed. Sources default their process label to the file name /
// URL host so multi-process traces stay readable even when the export
// carries no process field.
func renderTimelines(sources []string, only string) error {
	c := collector.New()
	for _, src := range sources {
		src = strings.TrimSpace(src)
		if src == "" {
			continue
		}
		raw, err := readSource(src)
		if err != nil {
			return err
		}
		spans, err := collector.ParseExport(raw, src)
		if err != nil {
			return fmt.Errorf("%s: %w", src, err)
		}
		c.Add(spans...)
	}

	ids := c.TraceIDs()
	if only != "" {
		ids = []string{only}
	}
	if len(ids) == 0 {
		return fmt.Errorf("no completed spans with trace ids in %s", strings.Join(sources, ","))
	}
	for _, id := range ids {
		tr := c.Stitch(id)
		if tr == nil {
			return fmt.Errorf("unknown trace id %s", id)
		}
		fmt.Println(tr.Timeline())
	}
	return nil
}

func runOne(run func() (*experiments.Table, error)) error {
	start := time.Now()
	table, err := run()
	if err != nil {
		return err
	}
	fmt.Println(table.Format())
	fmt.Printf("   (generated in %v)\n\n", time.Since(start).Round(time.Millisecond))
	return nil
}
