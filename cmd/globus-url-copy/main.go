// Command globus-url-copy is a WAN transfer workbench in the spirit of
// the Globus client of the same name: it builds a two-site world on the
// simulated network, seeds a file, and copies it with the requested
// transfer options, reporting throughput — including third-party
// (server-to-server) copies with DCSC across CA boundaries.
//
// Usage examples:
//
//	globus-url-copy -size 16M -p 8 -rtt 50ms -bw 40M
//	globus-url-copy -thirdparty -dcsc -size 8M
//	globus-url-copy -mode S -prot P -size 4M
//	globus-url-copy gsiftp://siteA/data.bin file:/out.bin
//	globus-url-copy -dcsc gsiftp://siteA/data.bin gsiftp://siteB/data.bin
//
// When two URL arguments are given they select the direction: file: to
// gsiftp: uploads, gsiftp: to file: downloads, gsiftp: to gsiftp: runs a
// third-party transfer (add -dcsc when the sites' CAs differ).
//
// It also takes the observability flags every binary here shares
// (admin.Flags): with -admin the workbench exposes the same telemetry plane
// as the daemons — metrics, their sampled history (/debug/timeseries), SLO
// alerts, the stream health table — and holds after the copy so an operator
// or `benchreport -dashboard` can inspect the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"gridftp.dev/instant/internal/admin"
	"gridftp.dev/instant/internal/baseline"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/world"
)

func main() {
	size := flag.String("size", "8M", "file size (supports K/M/G suffixes)")
	parallel := flag.Int("p", 4, "parallel data streams (-p of globus-url-copy)")
	rtt := flag.Duration("rtt", 50*time.Millisecond, "link round-trip time")
	bw := flag.String("bw", "40M", "link bandwidth, bytes/sec")
	window := flag.String("window", "64K", "per-stream TCP window")
	loss := flag.Float64("loss", 0, "packet loss probability (e.g. 0.001)")
	mode := flag.String("mode", "E", "transfer mode: E (extended block) or S (stream)")
	prot := flag.String("prot", "C", "data protection: C (clear), S (safe), P (private)")
	thirdparty := flag.Bool("thirdparty", false, "server-to-server transfer between two sites")
	dcsc := flag.Bool("dcsc", false, "use DCSC for the cross-CA third-party data channel")
	lite := flag.Bool("lite", false, "use GridFTP-Lite (sshftp://): SSH-tunneled control channel, no data security")
	boot := admin.Flags(flag.CommandLine)
	flag.Parse()

	// URL arguments override the -thirdparty flag and direction.
	if flag.NArg() == 2 {
		src, err := gridftp.ParseURL(flag.Arg(0))
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(2)
		}
		dst, err := gridftp.ParseURL(flag.Arg(1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
			os.Exit(2)
		}
		switch {
		case !src.IsLocal() && !dst.IsLocal():
			*thirdparty = true
		case src.IsLocal() && dst.IsLocal():
			fmt.Fprintln(os.Stderr, "error: one side must be a gsiftp:// or sshftp:// URL")
			os.Exit(2)
		}
		if src.Scheme == "sshftp" || dst.Scheme == "sshftp" {
			*lite = true
		}
	} else if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: globus-url-copy [flags] [srcURL dstURL]")
		os.Exit(2)
	}

	d, err := boot.Start()
	if err == nil {
		err = run(*size, *parallel, *rtt, *bw, *window, *loss, *mode, *prot, *thirdparty, *dcsc, *lite, d)
		d.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
}

func parseSize(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func run(sizeStr string, parallel int, rtt time.Duration, bwStr, windowStr string, loss float64, modeStr, protStr string, thirdparty, dcsc, lite bool, d *admin.Daemon) error {
	size, err := parseSize(sizeStr)
	if err != nil {
		return err
	}
	bw, err := parseSize(bwStr)
	if err != nil {
		return err
	}
	window, err := parseSize(windowStr)
	if err != nil {
		return err
	}
	link := netsim.LinkParams{
		Bandwidth: float64(bw), RTT: rtt, Loss: loss, StreamWindow: window,
	}
	nw := netsim.NewNetwork()
	nw.SetDefaultLink(link)

	if lite {
		if err := runLite(nw, size, parallel, d); err != nil {
			return err
		}
		d.Hold()
		return nil
	}

	// Both sites and the client share the daemon's stream registry: one
	// table, both legs.
	cfg := gridftp.ServerConfig{Obs: d.Obs, Streams: d.Streams}
	dial := gridftp.DialOptions{Obs: d.Obs, Streams: d.Streams}
	siteA, err := world.NewSite(nw, "siteA", cfg)
	if err != nil {
		return err
	}
	defer siteA.Close()
	d.Ready()
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := siteA.Put("/data.bin", payload); err != nil {
		return err
	}

	fmt.Printf("link: %s bandwidth, %v RTT, %.3f%% loss, %s window (per-stream cap %s)\n",
		bwStr, rtt, loss*100, windowStr, fmtRate(link.StreamCap()))
	fmt.Printf("file: %s, streams: %d, mode: %s, prot: %s\n\n", sizeStr, parallel, modeStr, protStr)

	if thirdparty {
		siteB, err := world.NewSite(nw, "siteB", cfg)
		if err != nil {
			return err
		}
		defer siteB.Close()
		if err := runThirdParty(nw, siteA, siteB, dial, size, parallel, dcsc); err != nil {
			return err
		}
		d.Hold()
		return nil
	}

	client, err := siteA.Connect(nw.Host("laptop"), dial)
	if err != nil {
		return err
	}
	defer client.Close()
	if strings.EqualFold(modeStr, "S") {
		if err := client.SetMode(gridftp.ModeStream); err != nil {
			return err
		}
	} else if err := client.SetParallelism(parallel); err != nil {
		return err
	}
	switch strings.ToUpper(protStr) {
	case "C":
	case "S":
		if err := client.SetProt(gridftp.ProtSafe); err != nil {
			return err
		}
	case "P":
		if err := client.SetProt(gridftp.ProtPrivate); err != nil {
			return err
		}
	default:
		return fmt.Errorf("bad -prot %q", protStr)
	}

	dst := dsi.NewBufferFile(nil)
	start := time.Now()
	if _, err := client.Get("/data.bin", dst); err != nil {
		return err
	}
	report("gsiftp://siteA/data.bin -> file:/data.bin", size, time.Since(start))
	d.Hold()
	return nil
}

func runThirdParty(nw *netsim.Network, siteA, siteB *world.Site, dial gridftp.DialOptions, size, parallel int, useDCSC bool) error {
	laptop := nw.Host("laptop")
	cA, err := siteA.Connect(laptop, dial)
	if err != nil {
		return err
	}
	defer cA.Close()
	cB, err := siteB.Connect(laptop, dial)
	if err != nil {
		return err
	}
	defer cB.Close()
	for _, c := range []*gridftp.Client{cA, cB} {
		if err := c.SetParallelism(parallel); err != nil {
			return err
		}
	}
	opts := gridftp.ThirdPartyOptions{}
	if useDCSC {
		opts.DCSC = siteA.User
		opts.DCSCTarget = gridftp.DCSCDest
		fmt.Println("DCSC: passing site A's credential to site B (Fig 5)")
	} else {
		fmt.Println("conventional DCAU: both sites must trust each other's CA (Fig 4)")
	}
	start := time.Now()
	_, err = gridftp.ThirdParty(cA, "/data.bin", cB, "/data.bin", opts)
	if err != nil {
		return fmt.Errorf("third-party transfer: %w (expected across CAs without -dcsc)", err)
	}
	report("gsiftp://siteA/data.bin -> gsiftp://siteB/data.bin (third party)", size, time.Since(start))
	return nil
}

func report(what string, size int, d time.Duration) {
	fmt.Printf("%s\n", what)
	fmt.Printf("  %d bytes in %v = %s\n", size, d.Round(time.Millisecond), fmtRate(float64(size)/d.Seconds()))
}

func fmtRate(r float64) string {
	switch {
	case r >= 1e9:
		return fmt.Sprintf("%.2f GB/s", r/1e9)
	case r >= 1e6:
		return fmt.Sprintf("%.2f MB/s", r/1e6)
	}
	return fmt.Sprintf("%.0f KB/s", r/1e3)
}

// runLite drives GridFTP-Lite (§III.B): SSH-style password logon, control
// channel tunneled, cleartext data channel, no delegation.
func runLite(nw *netsim.Network, size, parallel int, d *admin.Daemon) error {
	site, err := world.NewSite(nw, "siteA", gridftp.ServerConfig{Obs: d.Obs, Streams: d.Streams})
	if err != nil {
		return err
	}
	defer site.Close()
	sshdCred, err := site.CA.Issue(gsi.IssueOptions{Subject: "/O=Grid/OU=siteA/CN=sshd", Lifetime: 12 * time.Hour, Host: true})
	if err != nil {
		return err
	}
	stack, _ := world.Directory("siteA", map[string]string{world.User: "pw"})
	liteSrv := &baseline.LiteServer{HostCred: sshdCred, Auth: stack, GridFTP: site.Server}
	addr, err := liteSrv.ListenAndServe(nw.Host("siteA"), baseline.LitePort)
	if err != nil {
		return err
	}
	defer liteSrv.Close()

	if err := site.Put("/data.bin", make([]byte, size)); err != nil {
		return err
	}

	fmt.Println("GridFTP-Lite: SSH password logon, tunneled control channel (paper §III.B)")
	c, err := baseline.LiteDial(nw.Host("laptop"), addr.String(), "alice", "pw")
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.SetParallelism(parallel); err != nil {
		return err
	}
	start := time.Now()
	if _, err := c.Get("/data.bin", dsi.NewBufferFile(nil)); err != nil {
		return err
	}
	report("sshftp://siteA/data.bin -> file:/data.bin (lite: DATA CHANNEL UNPROTECTED)", size, time.Since(start))
	if err := c.Delegate(time.Hour); err != nil {
		fmt.Printf("  delegation: %v\n", err)
	}
	return nil
}
