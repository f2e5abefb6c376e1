package main

// The -stream-health renderer: the per-stream wire-telemetry table from
// a live admin plane's /debug/streams endpoint, or — with the literal
// argument "e18" — from an in-process run of the E18 instrumented
// workload. CI attaches the e18 form to failed bench runs so the data
// path's stream behavior in that exact build is on record next to the
// numbers that regressed.

import (
	"fmt"
	"strings"
	"time"

	"gridftp.dev/instant/internal/experiments"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/streamstats"
)

func runStreamHealth(arg string) error {
	if strings.HasPrefix(arg, "http://") || strings.HasPrefix(arg, "https://") {
		txt, err := fetchText(strings.TrimRight(arg, "/") + "/debug/streams?format=text")
		if err != nil {
			return err
		}
		fmt.Print(txt)
		return nil
	}
	if arg != "e18" {
		return fmt.Errorf("stream-health: want an admin-plane base URL or \"e18\", got %q", arg)
	}
	reg := streamstats.New(streamstats.Options{
		Obs:      obs.Nop(),
		Interval: 20 * time.Millisecond,
	})
	defer reg.Start()()
	// Zero-bandwidth link: run the workload CPU-bound so the table shows
	// what the data path does at full tilt on this machine.
	rate, err := experiments.MeasureStreamTelemetryRate(netsim.LinkParams{}, 8<<20, 4, reg)
	if err != nil {
		return err
	}
	fmt.Printf("E18 instrumented workload: %.1f MB/s\n\n", rate/1e6)
	fmt.Print(streamstats.FormatTable(reg.Health()))
	return nil
}
