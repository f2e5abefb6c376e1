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
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/transfer"
)

func main() {
	var opts runOptions
	flag.StringVar(&opts.sizeStr, "size", "8M", "transfer size (per file with -files)")
	flag.IntVar(&opts.files, "files", 1, "number of files; > 1 transfers a directory through the scheduler")
	flag.IntVar(&opts.concurrency, "concurrency", 0, "per-task worker session pairs (0 = auto-size: one per 4 MiB of pending bytes, at most 8)")
	flag.IntVar(&opts.maxActive, "max-active", 0, "service-wide cap on in-flight file transfers (0 = default 32)")
	flag.DurationVar(&opts.markerInterval, "marker-interval", 25*time.Millisecond, "restart/perf marker cadence requested from destination servers")
	flag.BoolVar(&opts.fault, "fault", false, "inject a receive-side fault at 60% and recover")
	flag.BoolVar(&opts.useOAuth, "oauth", false, "activate endpoints via OAuth instead of passwords")
	boot := admin.Flags(flag.CommandLine)
	flag.Parse()

	d, err := boot.Start()
	if err == nil {
		err = run(opts, d)
		d.Close()
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
	sizeStr        string
	files          int
	concurrency    int
	maxActive      int
	markerInterval time.Duration
	fault          bool
	useOAuth       bool
}

func run(opts runOptions, d *admin.Daemon) error {
	sizeStr, fault, useOAuth := opts.sizeStr, opts.fault, opts.useOAuth
	size := parseSize(sizeStr)
	if opts.files < 1 {
		opts.files = 1
	}
	nw := netsim.NewNetwork()

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
			Obs: d.Obs, Streams: d.Streams, Tenants: d.Tenants,
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
		Obs:                d.Obs,
		Streams:            d.Streams,
		Tenants:            d.Tenants,
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

	d.Ready() // endpoints registered and activated: the service takes submissions

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
	d.Hold()
	return nil
}
