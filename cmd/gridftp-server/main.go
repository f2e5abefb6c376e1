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
//	               [-selftest] [-oauth] [observability flags]
//
// The observability flags are the set every binary here shares
// (admin.Flags; "how a daemon boots" in internal/obs/README.md). With
// -admin, the HTTP admin plane — every route in that README's table,
// /debug/streams included — is served on the given address,
// /readyz answers ok once the endpoint is installed, and the process holds
// until SIGINT/SIGTERM so the endpoints stay scrapeable.
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
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/world"
)

func main() {
	name := flag.String("name", "siteA", "endpoint name")
	user := flag.String("user", "alice", "local account to provision")
	password := flag.String("password", "secret", "site password for the account")
	selftest := flag.Bool("selftest", true, "run a loopback transfer after startup")
	withOAuth := flag.Bool("oauth", false, "also start the OAuth server")
	boot := admin.Flags(flag.CommandLine)
	flag.Parse()

	// The admin plane comes up before the install so /healthz answers
	// immediately; /readyz flips once the endpoint is serving.
	d, err := boot.Start()
	if err == nil {
		err = run(d, *name, *user, *password, *selftest, *withOAuth)
		d.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
}

func run(d *admin.Daemon, name, user, password string, selftest, withOAuth bool) error {
	nw := netsim.NewNetwork()

	fmt.Printf("installing GCMU endpoint %q (the paper's four-command install, §IV.D)...\n", name)
	start := time.Now()
	ep, err := world.NewEndpoint(gcmu.Options{
		Name:      name,
		Host:      nw.Host(name),
		WithOAuth: withOAuth,
		Obs:       d.Obs,
		Streams:   d.Streams,
	}, map[string]string{user: password})
	if err != nil {
		return err
	}
	defer ep.Close()
	d.Ready()
	fmt.Printf("install complete in %v\n\n", time.Since(start).Round(time.Millisecond))

	fmt.Printf("endpoint:        %s\n", ep.Name)
	fmt.Printf("gridftp:         gsiftp://%s\n", ep.GridFTPAddr)
	fmt.Printf("myproxy:         myproxy://%s\n", ep.MyProxyAddr)
	if ep.OAuthAddr != "" {
		fmt.Printf("oauth:           https://%s\n", ep.OAuthAddr)
	}
	fmt.Printf("site CA:         %s\n", ep.SigningCA.DN())
	fmt.Printf("accounts:        %v\n", ep.Accounts.Names())
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
	d.Hold()
	return nil
}
