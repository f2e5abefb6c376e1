// Command gridftp-server starts a GCMU-packaged GridFTP endpoint inside
// the simulated network substrate, prints its configuration (addresses,
// CA DN, accounts), and optionally runs a self-test transfer against it.
//
// The network substrate is the in-process simulator (internal/netsim); the
// binary demonstrates and exercises the full server stack — TLS control
// channel, MyProxy Online CA, AUTHZ callout, MODE E data channels — as a
// downstream user would wire it into their own harness.
//
// Usage:
//
//	gridftp-server [-name siteA] [-user alice] [-password secret]
//	               [-stripes N] [-selftest] [-oauth] [-verbose] [-metrics]
//	               [-admin 127.0.0.1:9970] [-collector http://host/v1/spans]
//	               [-fleet-push http://head/v1/metrics] [-fleet-instance name]
//	               [-profile-interval 10s] [-profile-retain 5m]
//
// With -admin, an HTTP admin plane (Prometheus /metrics, /healthz,
// /readyz, /debug/spans, /debug/events, /debug/pprof/, and the
// continuous profiler's /debug/profile/continuous window history) is
// served on the given address and the process holds until
// SIGINT/SIGTERM so the endpoints stay scrapeable.
//
// With -fleet-push, the server periodically pushes its metrics snapshot
// (exemplars included) to a fleet federation head — a transfer-service
// run with -fleet — which merges every instance's series into fleet-wide
// aggregates.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gridftp.dev/instant/internal/admin"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/collector"
	"gridftp.dev/instant/internal/obs/fleet"
	"gridftp.dev/instant/internal/obs/profile"
	"gridftp.dev/instant/internal/obs/tenant"
	"gridftp.dev/instant/internal/pam"
)

func main() {
	name := flag.String("name", "siteA", "endpoint name")
	user := flag.String("user", "alice", "local account to provision")
	password := flag.String("password", "secret", "site password for the account")
	selftest := flag.Bool("selftest", true, "run a loopback transfer after startup")
	withOAuth := flag.Bool("oauth", false, "also start the OAuth server")
	verbose := flag.Bool("verbose", false, "structured debug logging to stderr")
	metrics := flag.Bool("metrics", false, "dump the metrics/span snapshot on exit")
	adminAddr := flag.String("admin", "", "serve the HTTP admin plane on this address and hold until interrupted")
	collectorURL := flag.String("collector", "", "push completed spans to this collector /v1/spans URL on exit")
	fleetPush := flag.String("fleet-push", "", "push this server's metrics to a fleet head's /v1/metrics URL")
	fleetInstance := flag.String("fleet-instance", "", "instance name for -fleet-push (default: -name)")
	profileInterval := flag.Duration("profile-interval", 10*time.Second, "continuous profiler capture cadence (0 disables); runs when -admin or -fleet-push is set")
	profileRetain := flag.Duration("profile-retain", 5*time.Minute, "how long raw continuous-profile captures are retained (summaries persist ~2h)")
	flag.Parse()

	o := obs.FromEnv()
	if *verbose {
		o = obs.New(os.Stderr, obs.LevelDebug)
	}
	// Continuous profiler: always-on capture into the bounded window ring
	// whenever anything can read it — the admin plane's
	// /debug/profile/continuous or a fleet head via the pusher.
	var prof *profile.Profiler
	if *profileInterval > 0 && (*adminAddr != "" || *fleetPush != "") {
		prof = profile.New(profile.Options{
			Interval: *profileInterval,
			Recent:   int(*profileRetain / *profileInterval),
			Obs:      o,
		})
		o.Profile = prof
		defer prof.Start()()
	}
	// Tenant accounting plane: per-DN attribution of commands and data
	// bytes, surfaced on the admin plane's /tenants and federated to any
	// fleet head. Only minted when something can read it.
	var tenants *tenant.Accountant
	if *adminAddr != "" || *fleetPush != "" {
		tenants = tenant.New(tenant.Options{Obs: o})
		stopTenants := tenants.Start()
		defer stopTenants()
	}
	if *fleetPush != "" {
		instance := *fleetInstance
		if instance == "" {
			instance = *name
		}
		stopPush := fleet.StartPusher(*fleetPush, instance, o, tenants)
		defer stopPush()
	}
	err := run(*name, *user, *password, *selftest, *withOAuth, *adminAddr, o, prof, tenants)
	if *metrics {
		fmt.Fprint(os.Stderr, o.DebugSnapshot())
	}
	if *collectorURL != "" {
		// Best-effort: a dead collector must not fail the server run.
		if perr := collector.Push(*collectorURL, *name, o.Tracer().Spans()); perr != nil {
			fmt.Fprintf(os.Stderr, "span export: %v\n", perr)
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
}

func run(name, user, password string, selftest, withOAuth bool, adminAddr string, o *obs.Obs, prof *profile.Profiler, tenants *tenant.Accountant) error {
	nw := netsim.NewNetwork()

	// The admin plane comes up before the install so /healthz answers
	// immediately; /readyz flips once the endpoint is serving.
	installed := make(chan struct{})
	var adm *admin.Server
	if adminAddr != "" {
		adm = admin.New(o)
		adm.AddReadiness("endpoint", func() error {
			select {
			case <-installed:
				return nil
			default:
				return fmt.Errorf("endpoint not yet installed")
			}
		})
		// Full telemetry: time-series flight recorder, SLO alert engine,
		// and the /debug/stream live feed.
		stopTelemetry := adm.EnableTelemetry(o, nil)
		defer stopTelemetry()
		if prof != nil {
			adm.SetProfiler(prof)
		}
		if tenants != nil {
			adm.SetTenants(tenants)
		}
		addr, err := adm.ListenAndServe(adminAddr)
		if err != nil {
			return err
		}
		defer adm.Close()
		fmt.Printf("admin plane:     http://%s/\n", addr)
	}

	dir := pam.NewLDAPDirectory("dc=" + name)
	dir.AddEntry(user, password)
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: user})
	stack := pam.NewStack("myproxy", accounts,
		pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}})

	fmt.Printf("installing GCMU endpoint %q (the paper's four-command install, §IV.D)...\n", name)
	start := time.Now()
	ep, err := gcmu.Install(gcmu.Options{
		Name:      name,
		Host:      nw.Host(name),
		Auth:      stack,
		Accounts:  accounts,
		WithOAuth: withOAuth,
		Obs:       o,
		Tenants:   tenants,
	})
	if err != nil {
		return err
	}
	defer ep.Close()
	close(installed)
	fmt.Printf("install complete in %v\n\n", time.Since(start).Round(time.Millisecond))

	fmt.Printf("endpoint:        %s\n", ep.Name)
	fmt.Printf("gridftp:         gsiftp://%s\n", ep.GridFTPAddr)
	fmt.Printf("myproxy:         myproxy://%s\n", ep.MyProxyAddr)
	if ep.OAuthAddr != "" {
		fmt.Printf("oauth:           https://%s\n", ep.OAuthAddr)
	}
	fmt.Printf("site CA:         %s\n", ep.SigningCA.DN())
	fmt.Printf("accounts:        %v\n", accounts.Names())
	fmt.Printf("gridmap file:    none (AUTHZ callout parses username from DN, §IV.C)\n\n")

	if selftest {
		fmt.Println("self-test: myproxy-logon + put + get ...")
		client, err := ep.Connect(nw.Host("laptop"), user, pam.PasswordConv(password))
		if err != nil {
			return fmt.Errorf("self-test connect: %w", err)
		}
		defer client.Close()
		payload := make([]byte, 1<<20)
		for i := range payload {
			payload[i] = byte(i)
		}
		t0 := time.Now()
		if _, err := client.Put("/selftest.bin", dsi.NewBufferFile(payload)); err != nil {
			return fmt.Errorf("self-test put: %w", err)
		}
		dst := dsi.NewBufferFile(nil)
		if _, err := client.Get("/selftest.bin", dst); err != nil {
			return fmt.Errorf("self-test get: %w", err)
		}
		if len(dst.Bytes()) != len(payload) {
			return fmt.Errorf("self-test: round trip %d of %d bytes", len(dst.Bytes()), len(payload))
		}
		fmt.Printf("self-test OK: 1 MiB round trip in %v\n", time.Since(t0).Round(time.Millisecond))
	}
	if adm != nil {
		fmt.Printf("\nholding for scrapes (curl http://%s/metrics); Ctrl-C to exit\n", adm.Addr())
		admin.AwaitInterrupt()
	}
	return nil
}
