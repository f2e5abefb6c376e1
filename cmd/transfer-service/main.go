// Command transfer-service demonstrates the Globus Online-style hosted
// service (§VI): it installs two GCMU endpoints in different trust
// domains, registers them with the service, activates them (password or
// OAuth), submits a third-party transfer — applying DCSC across the CA
// boundary automatically — and, with -fault, injects a mid-transfer
// failure to show checkpoint restart.
//
// Usage:
//
//	transfer-service [-size 8M] [-files 1] [-fault] [-oauth]
//	                 [-concurrency 0] [-max-active 32] [-marker-interval 25ms]
//	                 [observability flags]
//
// With -files N (N > 1), the demo transfers a directory of N files of
// -size each, exercising the concurrent scheduler: -concurrency pins the
// per-task worker fan-out (0 = auto-sized from the pending bytes),
// -max-active bounds in-flight file transfers service-wide, and
// -marker-interval sets the restart/perf marker cadence.
//
// The observability flags are the set every binary here shares
// (admin.Flags; "how a daemon boots" in internal/obs/README.md). With
// -admin, the HTTP admin plane is served on the given address and the
// process holds after the demo transfer until SIGINT/SIGTERM.
// -stall-timeout aborts a data stream making no progress for that long; the
// scheduler retries the file from its checkpoint.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gridftp.dev/instant/internal/admin"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/transfer"
	"gridftp.dev/instant/internal/world"
)

func main() {
	var opts runOptions
	flag.StringVar(&opts.sizeStr, "size", "8M", "transfer size (per file with -files): a positive integer with an optional K or M suffix")
	flag.IntVar(&opts.files, "files", 1, "number of files; > 1 transfers a directory through the scheduler")
	flag.IntVar(&opts.concurrency, "concurrency", 0, "per-task worker session pairs (0 = auto-size: one per 4 MiB of pending bytes, at most 8)")
	flag.IntVar(&opts.maxActive, "max-active", 0, "service-wide cap on in-flight file transfers (0 = default 32)")
	flag.DurationVar(&opts.markerInterval, "marker-interval", 25*time.Millisecond, "restart/perf marker cadence requested from destination servers")
	flag.BoolVar(&opts.fault, "fault", false, "inject a receive-side fault at 60% and recover")
	flag.BoolVar(&opts.useOAuth, "oauth", false, "activate endpoints via OAuth instead of passwords")
	boot := admin.Flags(flag.CommandLine)
	flag.Parse()
	size, err := parseSize(opts.sizeStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(2)
	}

	d, err := boot.Start()
	if err == nil {
		err = run(opts, size, d)
		d.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
}

// parseSize reads -size: a positive number of bytes, KiB (K) or MiB (M), at
// most 1 GiB — the payload is held in memory at both sites.
func parseSize(s string) (int, error) {
	n, mult := s, 1
	switch {
	case strings.HasSuffix(s, "K"):
		n, mult = strings.TrimSuffix(s, "K"), 1<<10
	case strings.HasSuffix(s, "M"):
		n, mult = strings.TrimSuffix(s, "M"), 1<<20
	}
	v, err := strconv.Atoi(n)
	if err != nil || v <= 0 || v > (1<<30)/mult {
		return 0, fmt.Errorf("bad -size %q: want a positive integer with an optional K or M suffix", s)
	}
	return v * mult, nil
}

type runOptions struct {
	sizeStr        string
	files          int
	concurrency    int
	maxActive      int
	markerInterval time.Duration
	fault          bool
	useOAuth       bool
}

func run(opts runOptions, size int, d *admin.Daemon) error {
	sizeStr, fault, useOAuth := opts.sizeStr, opts.fault, opts.useOAuth
	if opts.files < 1 {
		opts.files = 1
	}

	fmt.Println("installing GCMU endpoints siteA and siteB (independent CAs)...")
	w, err := world.NewHosted(transfer.Config{
		RetryDelay:         25 * time.Millisecond,
		TaskConcurrency:    opts.concurrency,
		MaxActiveTransfers: opts.maxActive,
		MarkerInterval:     opts.markerInterval,
		Obs:                d.Obs,
		Streams:            d.Streams,
	}, gcmu.Options{
		WithOAuth: useOAuth, MarkerInterval: 25 * time.Millisecond,
		Obs: d.Obs, Streams: d.Streams,
	})
	if err != nil {
		return err
	}
	defer w.Close() // the service first: the session pairs it keeps warm between tasks
	for _, ep := range []*gcmu.Endpoint{w.A, w.B} {
		fmt.Printf("  registered endpoint %s (CA %s)\n", ep.Name, ep.SigningCA.DN())
	}

	fmt.Println("\nactivating endpoints...")
	if err := w.Activate(); err != nil {
		return err
	}
	if useOAuth {
		fmt.Printf("  OAuth activation: passwords seen by the service = %d (Fig 7)\n", w.Service.PasswordsSeen)
	} else {
		fmt.Printf("  password activation: passwords seen by the service = %d (Fig 6)\n", w.Service.PasswordsSeen)
	}

	d.Ready() // endpoints registered and activated: the service takes submissions

	// Seed the source: one file, or a directory of -files files.
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	srcPath, dstPath := "/dataset.bin", "/dataset.bin"
	if opts.files > 1 {
		srcPath, dstPath = "/dataset", "/dataset"
		if err := w.A.Storage.Mkdir(world.User, srcPath); err != nil {
			return err
		}
	}
	for i := 0; i < opts.files; i++ {
		path := srcPath
		if opts.files > 1 {
			path = fmt.Sprintf("%s/f%03d.bin", srcPath, i)
		}
		if err := w.Put(path, payload); err != nil {
			return err
		}
	}

	if fault {
		w.FaultB.Arm(int64(float64(size) * 0.6))
		fmt.Printf("\nfault armed: site B's storage will fail after %d bytes\n", int(float64(size)*0.6))
	}

	if opts.files > 1 {
		fmt.Printf("\nsubmitting directory transfer siteA:%s -> siteB:%s (%d x %s)...\n",
			srcPath, dstPath, opts.files, sizeStr)
	} else {
		fmt.Printf("\nsubmitting third-party transfer siteA:%s -> siteB:%s (%s)...\n", srcPath, dstPath, sizeStr)
	}
	task, err := w.Service.Submit(world.User, "siteA", srcPath, "siteB", dstPath)
	if err != nil {
		return err
	}
	done, err := w.Service.Wait(task.ID, 2*time.Minute)
	if err != nil {
		return err
	}
	fmt.Printf("\ntask %s: %s\n", done.ID, done.Status)
	fmt.Printf("  attempts:        %d\n", done.Attempts)
	fmt.Printf("  parallelism:     %d (auto-tuned for %s)\n", done.Parallelism, sizeStr)
	if opts.files > 1 {
		fmt.Printf("  scheduler:       %d worker session pairs, %d/%d files\n",
			done.Workers, done.CompletedFiles, done.TotalFiles)
	}
	fmt.Printf("  bytes moved:     %d (payload %d)\n", done.BytesTransferred, size*opts.files)
	fmt.Printf("  perf markers:    %d observed in flight (last total %d bytes)\n", done.PerfMarkers, done.PerfBytes)
	if done.Attempts > 1 && opts.files == 1 {
		saved := int64(done.Attempts)*int64(size) - done.BytesTransferred
		fmt.Printf("  checkpointing:   restart markers avoided resending ~%d bytes\n", saved)
	}
	fmt.Printf("  cross-CA DCSC:   applied automatically (site CAs differ)\n")
	if done.Error != "" {
		return fmt.Errorf("task failed: %s", done.Error)
	}
	// Verify content (the single file, or the last file of the directory).
	verifyPath := dstPath
	if opts.files > 1 {
		verifyPath = fmt.Sprintf("%s/f%03d.bin", dstPath, opts.files-1)
	}
	g, err := w.B.Storage.Open(world.User, verifyPath)
	if err != nil {
		return err
	}
	got, err := dsi.ReadAll(g)
	g.Close()
	if err != nil {
		return err
	}
	if !bytes.Equal(got, payload) {
		return fmt.Errorf("verification failed: destination holds %d bytes that differ from the %d sent", len(got), len(payload))
	}
	fmt.Println("  verification:    destination content matches")
	d.Hold()
	return nil
}
