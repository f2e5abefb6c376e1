// Command transfer-service demonstrates the Globus Online-style hosted
// service (§VI): it installs two GCMU endpoints in different trust
// domains, registers them with the service, activates them (password or
// OAuth), submits a third-party transfer — applying DCSC across the CA
// boundary automatically — and, with -fault, injects a mid-transfer
// failure to show checkpoint restart.
//
// Usage:
//
//	transfer-service [-size 8M] [-files 1] [-fault] [-oauth] [-verbose] [-metrics]
//	                 [-concurrency 0] [-max-active 32] [-marker-interval 25ms]
//	                 [-admin 127.0.0.1:9971] [-collector http://host/v1/spans]
//	                 [-fleet] [-fleet-scrape name=url,...] [-fleet-bundle-dir dir]
//	                 [-fleet-push http://head/v1/metrics] [-fleet-instance name]
//	                 [-profile-interval 10s] [-profile-retain 5m]
//	                 [-stall-timeout 0]
//
// With -files N (N > 1), the demo transfers a directory of N files of
// -size each, exercising the concurrent scheduler: -concurrency pins the
// per-task worker fan-out (0 = auto-sized from the pending bytes),
// -max-active bounds in-flight file transfers service-wide, and
// -marker-interval sets the restart/perf marker cadence.
//
// With -admin, the HTTP admin plane (Prometheus /metrics, /debug/events,
// ...) is served on the given address and the process holds after the
// demo transfer until SIGINT/SIGTERM.
//
// With -fleet (or -fleet-scrape / -fleet-bundle-dir), the admin plane
// additionally acts as the fleet federation head: other processes push
// their expfmt snapshots to /v1/metrics (see -fleet-push), the head
// merges them into fleet-wide aggregates under /fleet/metrics, and
// firing fleet alerts capture diagnostic bundles into -fleet-bundle-dir.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gridftp.dev/instant/internal/admin"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/oauth"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/collector"
	"gridftp.dev/instant/internal/obs/fleet"
	"gridftp.dev/instant/internal/obs/profile"
	"gridftp.dev/instant/internal/obs/streamstats"
	"gridftp.dev/instant/internal/obs/tenant"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/transfer"
)

func main() {
	sizeStr := flag.String("size", "8M", "transfer size (per file with -files)")
	files := flag.Int("files", 1, "number of files; > 1 transfers a directory through the scheduler")
	concurrency := flag.Int("concurrency", 0, "per-task worker session pairs (0 = auto-size: one per 4 MiB of pending bytes, at most 8)")
	maxActive := flag.Int("max-active", 0, "service-wide cap on in-flight file transfers (0 = default 32)")
	markerInterval := flag.Duration("marker-interval", 25*time.Millisecond, "restart/perf marker cadence requested from destination servers")
	fault := flag.Bool("fault", false, "inject a receive-side fault at 60% and recover")
	useOAuth := flag.Bool("oauth", false, "activate endpoints via OAuth instead of passwords")
	verbose := flag.Bool("verbose", false, "structured debug logging to stderr")
	metrics := flag.Bool("metrics", false, "dump the metrics/span snapshot on exit")
	adminAddr := flag.String("admin", "", "serve the HTTP admin plane on this address and hold until interrupted")
	collectorURL := flag.String("collector", "", "push completed spans to this collector /v1/spans URL on exit")
	fleetHead := flag.Bool("fleet", false, "act as the fleet federation head (requires -admin): accept pushes on /v1/metrics, serve /fleet/*")
	fleetScrape := flag.String("fleet-scrape", "", "comma-separated name=url /metrics endpoints the fleet head scrapes (implies -fleet)")
	fleetBundleDir := flag.String("fleet-bundle-dir", "", "directory for alert-triggered diagnostic bundles (implies -fleet)")
	fleetPush := flag.String("fleet-push", "", "push this process's metrics to a fleet head's /v1/metrics URL")
	fleetInstance := flag.String("fleet-instance", "transfer-service", "instance name for -fleet-push")
	profileInterval := flag.Duration("profile-interval", 10*time.Second, "continuous profiler capture cadence (0 disables); runs when -admin or -fleet-push is set")
	profileRetain := flag.Duration("profile-retain", 5*time.Minute, "how long raw continuous-profile captures are retained (summaries persist ~2h)")
	stallTimeout := flag.Duration("stall-timeout", 0, "abort a data stream making no progress for this long and retry from checkpoint (0 disables the stall watchdog)")
	flag.Parse()
	o := obs.FromEnv()
	if *verbose {
		o = obs.New(os.Stderr, obs.LevelDebug)
	}
	err := run(runOptions{
		sizeStr:         *sizeStr,
		files:           *files,
		concurrency:     *concurrency,
		maxActive:       *maxActive,
		markerInterval:  *markerInterval,
		fault:           *fault,
		useOAuth:        *useOAuth,
		adminAddr:       *adminAddr,
		fleetHead:       *fleetHead || *fleetScrape != "" || *fleetBundleDir != "",
		fleetScrape:     *fleetScrape,
		fleetBundleDir:  *fleetBundleDir,
		fleetPush:       *fleetPush,
		fleetInstance:   *fleetInstance,
		profileInterval: *profileInterval,
		profileRetain:   *profileRetain,
		stallTimeout:    *stallTimeout,
	}, o)
	if *metrics {
		fmt.Fprint(os.Stderr, o.DebugSnapshot())
	}
	if *collectorURL != "" {
		// Best-effort: a dead collector must not fail the demo run.
		if perr := collector.Push(*collectorURL, "transfer-service", o.Tracer().Spans()); perr != nil {
			fmt.Fprintf(os.Stderr, "span export: %v\n", perr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
}

func parseSize(s string) int {
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	n, _ := strconv.Atoi(s)
	if n <= 0 {
		n = 8
		mult = 1 << 20
	}
	return n * mult
}

type runOptions struct {
	sizeStr         string
	files           int
	concurrency     int
	maxActive       int
	markerInterval  time.Duration
	fault           bool
	useOAuth        bool
	adminAddr       string
	fleetHead       bool
	fleetScrape     string
	fleetBundleDir  string
	fleetPush       string
	fleetInstance   string
	profileInterval time.Duration
	profileRetain   time.Duration
	stallTimeout    time.Duration
}

func run(opts runOptions, o *obs.Obs) error {
	sizeStr := opts.sizeStr
	fault, useOAuth, adminAddr := opts.fault, opts.useOAuth, opts.adminAddr
	size := parseSize(sizeStr)
	if opts.files < 1 {
		opts.files = 1
	}
	nw := netsim.NewNetwork()

	// Continuous profiler: always-on capture whenever anything can read
	// it — the admin plane's /debug/profile/continuous or a fleet head
	// via the pusher's /v1/profile summaries.
	var prof *profile.Profiler
	if opts.profileInterval > 0 && (adminAddr != "" || opts.fleetPush != "") {
		prof = profile.New(profile.Options{
			Interval: opts.profileInterval,
			Recent:   int(opts.profileRetain / opts.profileInterval),
			Obs:      o,
		})
		o.Profile = prof
		defer prof.Start()()
	}

	// Stream-telemetry plane: one registry shared by both endpoints and
	// the scheduler, so per-stream wire telemetry, the stall watchdog, and
	// the scheduler's per-attempt wire evidence all read the same state.
	streams := streamstats.New(streamstats.Options{
		Obs:          o,
		Stall:        opts.stallTimeout,
		AbortOnStall: opts.stallTimeout > 0,
	})
	defer streams.Start()()

	// Tenant accounting plane: one accountant shared by both endpoints
	// and the scheduler attributes every task, queue wait, command, and
	// data byte to the submitting credential DN; the publisher feeds the
	// bounded tenant.<hash>.* series behind /tenants and the dashboard.
	tenants := tenant.New(tenant.Options{Obs: o})
	stopTenants := tenants.Start()
	defer stopTenants()

	var adm *admin.Server
	if adminAddr != "" {
		adm = admin.New(o)
		adm.SetStreamStats(streams)
		adm.SetTenants(tenants)
		// Recorder + alert engine + live stream: the queue-wait burn-rate
		// rule in tsdb.DefaultRules watches this very service's admission
		// semaphore.
		stopTelemetry := adm.EnableTelemetry(o, nil)
		defer stopTelemetry()
		if prof != nil {
			adm.SetProfiler(prof)
		}
		addr, err := adm.ListenAndServe(adminAddr)
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Printf("admin plane: http://%s/\n", addr)

		if opts.fleetHead {
			// Federation head: accept expfmt pushes on /v1/metrics, scrape
			// any configured peers, and serve fleet aggregates, alerts, and
			// diagnostic bundles under /fleet/*.
			fl := fleet.New(fleet.Options{
				Obs:    o,
				Bundle: fleet.BundleOptions{Dir: opts.fleetBundleDir},
			})
			for _, target := range strings.Split(opts.fleetScrape, ",") {
				target = strings.TrimSpace(target)
				if target == "" {
					continue
				}
				name, url, ok := strings.Cut(target, "=")
				if !ok {
					return fmt.Errorf("-fleet-scrape: want name=url, got %q", target)
				}
				fl.AddScrapeTarget(name, url)
			}
			stopFleet := fl.Start()
			defer stopFleet()
			adm.SetFleet(fl.Handler())
			fmt.Printf("fleet head: push to http://%s/v1/metrics, browse http://%s/fleet/metrics\n", addr, addr)
		}
	}
	if opts.fleetPush != "" {
		stopPush := fleet.StartPusher(opts.fleetPush, opts.fleetInstance, o, tenants)
		defer stopPush()
	}

	install := func(name, pw string) (*gcmu.Endpoint, *dsi.FaultStorage, error) {
		dir := pam.NewLDAPDirectory("dc=" + name)
		dir.AddEntry("alice", pw)
		accounts := pam.NewAccountDB()
		accounts.Add(pam.Account{Name: "alice"})
		stack := pam.NewStack("myproxy", accounts,
			pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}})
		mem := dsi.NewMemStorage()
		mem.AddUser("alice")
		faulty := dsi.NewFaultStorage(mem)
		ep, err := gcmu.Install(gcmu.Options{
			Name: name, Host: nw.Host(name), Auth: stack, Accounts: accounts,
			Storage: faulty, WithOAuth: useOAuth, MarkerInterval: 25 * time.Millisecond,
			Obs: o, Streams: streams, Tenants: tenants,
		})
		return ep, faulty, err
	}

	fmt.Println("installing GCMU endpoints siteA and siteB (independent CAs)...")
	epA, _, err := install("siteA", "pwA")
	if err != nil {
		return err
	}
	defer epA.Close()
	epB, faultB, err := install("siteB", "pwB")
	if err != nil {
		return err
	}
	defer epB.Close()

	svc := transfer.NewService(nw.Host("globusonline"), transfer.Config{
		RetryDelay:         25 * time.Millisecond,
		TaskConcurrency:    opts.concurrency,
		MaxActiveTransfers: opts.maxActive,
		MarkerInterval:     opts.markerInterval,
		Obs:                o,
		Streams:            streams,
		Tenants:            tenants,
	})
	defer svc.Close() // the session pairs it keeps warm between tasks
	for _, ep := range []*gcmu.Endpoint{epA, epB} {
		if err := svc.RegisterEndpoint(transfer.Endpoint{
			Name: ep.Name, GridFTPAddr: ep.GridFTPAddr, MyProxyAddr: ep.MyProxyAddr,
			OAuthAddr: ep.OAuthAddr, Trust: ep.Trust, CADN: ep.SigningCA.DN(),
		}); err != nil {
			return err
		}
		if ep.OAuth != nil {
			ep.OAuth.RegisterClient(transfer.OAuthClient)
		}
		fmt.Printf("  registered endpoint %s (CA %s)\n", ep.Name, ep.SigningCA.DN())
	}

	fmt.Println("\nactivating endpoints...")
	if useOAuth {
		login := func(ep *gcmu.Endpoint, pw string) transfer.UserLoginFunc {
			return func(base, session string) (string, error) {
				userHTTP := oauth.HTTPClient(nw.Host("laptop"), ep.Trust)
				return oauth.Login(userHTTP, base, session, "alice", pw)
			}
		}
		if err := svc.ActivateWithOAuth("siteA", "alice", login(epA, "pwA")); err != nil {
			return err
		}
		if err := svc.ActivateWithOAuth("siteB", "alice", login(epB, "pwB")); err != nil {
			return err
		}
		fmt.Printf("  OAuth activation: passwords seen by the service = %d (Fig 7)\n", svc.PasswordsSeen)
	} else {
		if err := svc.ActivateWithPassword("siteA", "alice", "pwA"); err != nil {
			return err
		}
		if err := svc.ActivateWithPassword("siteB", "alice", "pwB"); err != nil {
			return err
		}
		fmt.Printf("  password activation: passwords seen by the service = %d (Fig 6)\n", svc.PasswordsSeen)
	}

	// Seed the source: one file, or a directory of -files files.
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	srcPath, dstPath := "/dataset.bin", "/dataset.bin"
	if opts.files > 1 {
		srcPath, dstPath = "/dataset", "/dataset"
		if err := epA.Storage.Mkdir("alice", srcPath); err != nil {
			return err
		}
	}
	for i := 0; i < opts.files; i++ {
		path := srcPath
		if opts.files > 1 {
			path = fmt.Sprintf("%s/f%03d.bin", srcPath, i)
		}
		f, err := epA.Storage.Create("alice", path)
		if err != nil {
			return err
		}
		dsi.WriteAll(f, payload)
		f.Close()
	}

	if fault {
		faultB.Arm(int64(float64(size) * 0.6))
		fmt.Printf("\nfault armed: site B's storage will fail after %d bytes\n", int(float64(size)*0.6))
	}

	if opts.files > 1 {
		fmt.Printf("\nsubmitting directory transfer siteA:%s -> siteB:%s (%d x %s)...\n",
			srcPath, dstPath, opts.files, sizeStr)
	} else {
		fmt.Printf("\nsubmitting third-party transfer siteA:%s -> siteB:%s (%s)...\n", srcPath, dstPath, sizeStr)
	}
	task, err := svc.Submit("alice", "siteA", srcPath, "siteB", dstPath)
	if err != nil {
		return err
	}
	done, err := svc.Wait(task.ID, 2*time.Minute)
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
	g, err := epB.Storage.Open("alice", verifyPath)
	if err != nil {
		return err
	}
	got, err := dsi.ReadAll(g)
	g.Close()
	if err != nil {
		return err
	}
	if len(got) != len(payload) {
		return fmt.Errorf("verification failed: %d of %d bytes", len(got), len(payload))
	}
	fmt.Println("  verification:    destination content matches")
	if adm != nil {
		fmt.Printf("\nholding for scrapes (curl http://%s/metrics); Ctrl-C to exit\n", adm.Addr())
		admin.AwaitInterrupt()
	}
	return nil
}
