// Command gcmu prints and executes the GCMU setup story (§III vs §IV):
// it lists the conventional multi-step GridFTP installation next to the
// four-command GCMU install, then performs a live install plus first
// transfer and reports the elapsed time.
//
// Usage:
//
//	gcmu steps                      # print the setup-step comparison
//	gcmu install [observability flags]  # perform a live install + first transfer
//	gcmu console [observability flags]  # install + drive the web admin console (§VIII)
//
// The observability flags are the set every binary here shares
// (admin.Flags). With -admin ADDR, install/console serve the HTTP admin
// plane (Prometheus /metrics, the log's ring at /debug/events, ...) on
// ADDR and hold until SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"gridftp.dev/instant/internal/admin"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/world"
)

func main() {
	cmd := "steps"
	args := os.Args[1:]
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd = args[0]
		args = args[1:]
	}
	run, ok := map[string]func(*admin.Daemon) error{"steps": steps, "install": install, "console": console}[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "usage: gcmu [steps|install|console] [observability flags]\n")
		os.Exit(2)
	}
	fs := flag.NewFlagSet("gcmu "+cmd, flag.ExitOnError)
	boot := admin.Flags(fs)
	fs.Parse(args)

	d, err := boot.Start()
	if err == nil {
		err = run(d)
		d.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
}

func printSteps(title string, list []gcmu.Step) {
	fmt.Printf("%s\n", title)
	for i, s := range list {
		fmt.Printf("  %2d. [%-11s ~%-8v] %s  (%s)\n", i+1, s.Kind, s.Latency, s.Name, s.Section)
	}
	sum := gcmu.Summarize(list)
	fmt.Printf("      => %d steps, %d manual, %d out-of-band, ~%v total\n\n",
		sum.Steps, sum.Manual, sum.OutOfBand, sum.TotalTime)
}

func steps(*admin.Daemon) error {
	fmt.Println("Conventional GridFTP deployment (paper §III.A):")
	fmt.Println()
	printSteps("server installation + security configuration:", gcmu.ConventionalServerSetup())
	printSteps("per-user security configuration:", gcmu.ConventionalUserSetup())
	fmt.Println("GCMU (paper §IV.D/E):")
	fmt.Println()
	printSteps("server:", gcmu.GCMUServerSetup())
	printSteps("client:", gcmu.GCMUClientSetup())
	conv := gcmu.Summarize(append(gcmu.ConventionalServerSetup(), gcmu.ConventionalUserSetup()...))
	fast := gcmu.Summarize(append(gcmu.GCMUServerSetup(), gcmu.GCMUClientSetup()...))
	fmt.Printf("time-to-first-transfer: conventional ~%v vs GCMU ~%v (%.0fx)\n",
		conv.TotalTime, fast.TotalTime, float64(conv.TotalTime)/float64(fast.TotalTime))
	return nil
}

func install(d *admin.Daemon) error {
	nw := netsim.NewNetwork()
	stack, accounts := world.Directory("siteA", map[string]string{"alice": "secret"})

	fmt.Println("$ wget https://.../globusconnect-multiuser-latest.tgz")
	fmt.Println("$ tar -xvzf globusconnect-multiuser-latest.tgz")
	fmt.Println("$ cd gcmu*")
	fmt.Println("$ sudo ./install")
	start := time.Now()
	ep, err := gcmu.Install(gcmu.Options{
		Name: "siteA", Host: nw.Host("siteA"), Auth: stack, Accounts: accounts,
		Obs: d.Obs, Streams: d.Streams,
	})
	if err != nil {
		return err
	}
	defer ep.Close()
	d.Ready()
	fmt.Printf("  created site CA:        %s\n", ep.SigningCA.DN())
	fmt.Printf("  started myproxy server: %s\n", ep.MyProxyAddr)
	fmt.Printf("  started gridftp server: %s\n", ep.GridFTPAddr)
	fmt.Printf("  authz callout:          username parsed from DN (no gridmap)\n")

	fmt.Println("\n$ myproxy-logon -b -T -s siteA  (password: ******)")
	fmt.Println("$ globus-url-copy file:/data.bin gsiftp://siteA/data.bin")
	client, err := ep.Connect(nw.Host("laptop"), "alice", pam.PasswordConv("secret"))
	if err != nil {
		return err
	}
	defer client.Close()
	payload := make([]byte, 1<<20)
	if _, err := client.Put("/data.bin", dsi.NewBufferFile(payload)); err != nil {
		return err
	}
	fmt.Printf("\ninstant GridFTP: install -> credential -> first transfer in %v\n",
		time.Since(start).Round(time.Millisecond))
	d.Hold()
	return nil
}

// console installs an endpoint, starts the §VIII admin console, and
// exercises it: status, account provisioning, locking.
func console(d *admin.Daemon) error {
	nw := netsim.NewNetwork()
	ep, err := world.NewEndpoint(gcmu.Options{
		Name: "siteA", Host: nw.Host("siteA"),
		Obs: d.Obs, Streams: d.Streams,
	}, map[string]string{"alice": "secret"})
	if err != nil {
		return err
	}
	defer ep.Close()
	d.Ready()
	adminConsole := &gcmu.Console{Endpoint: ep, Token: "demo-admin-token"}
	addr, err := adminConsole.ListenAndServe(8443)
	if err != nil {
		return err
	}
	defer adminConsole.Close()
	base := "https://" + addr.String()
	fmt.Printf("admin console up at %s (Bearer demo-admin-token)\n\n", base)

	hc := gcmu.ConsoleHTTPClient(nw.Host("admin-laptop"), ep)
	call := func(method, path string, body string) {
		var rdr io.Reader
		if body != "" {
			rdr = strings.NewReader(body)
		}
		req, _ := http.NewRequest(method, base+path, rdr)
		req.Header.Set("Authorization", "Bearer demo-admin-token")
		resp, err := hc.Do(req)
		if err != nil {
			fmt.Printf("  %s %s -> error: %v\n", method, path, err)
			return
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		fmt.Printf("$ curl -X %s %s%s %s\n  %s\n", method, base, path, body, strings.TrimSpace(string(out)))
	}
	call("GET", "/status", "")
	call("POST", "/accounts", `{"name":"bob"}`)
	call("GET", "/accounts", "")
	call("POST", "/accounts/lock", `{"name":"bob","locked":true}`)
	d.Hold()
	return nil
}
