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
// as the daemons — metrics, PERF-marker timelines (/debug/timeseries), SLO
// alerts, the stream-health table — and holds after the copy so an operator
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
	"gridftp.dev/instant/internal/authz"
	"gridftp.dev/instant/internal/baseline"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
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

	siteA, err := buildSite(nw, "siteA", d)
	if err != nil {
		return err
	}
	d.Ready()
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	if err := siteA.putFile("/data.bin", payload); err != nil {
		return err
	}

	fmt.Printf("link: %s bandwidth, %v RTT, %.3f%% loss, %s window (per-stream cap %s)\n",
		bwStr, rtt, loss*100, windowStr, fmtRate(link.StreamCap()))
	fmt.Printf("file: %s, streams: %d, mode: %s, prot: %s\n\n", sizeStr, parallel, modeStr, protStr)

	if thirdparty {
		if err := runThirdParty(nw, siteA, size, parallel, dcsc); err != nil {
			return err
		}
		d.Hold()
		return nil
	}

	client, err := siteA.connect(nw.Host("laptop"))
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

func runThirdParty(nw *netsim.Network, siteA *simpleSite, size, parallel int, useDCSC bool) error {
	siteB, err := buildSite(nw, "siteB", siteA.d)
	if err != nil {
		return err
	}
	laptop := nw.Host("laptop")
	cA, err := siteA.connect(laptop)
	if err != nil {
		return err
	}
	defer cA.Close()
	cB, err := siteB.connect(laptop)
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
		opts.DCSC = siteA.user
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

// simpleSite is a minimal one-user GridFTP site for the workbench.
type simpleSite struct {
	name    string
	trust   *gsi.TrustStore
	user    *gsi.Credential
	storage *dsi.MemStorage
	addr    string
	nw      *netsim.Network
	d       *admin.Daemon // both sites and the client share its stream registry: one table, both legs
}

func buildSite(nw *netsim.Network, name string, d *admin.Daemon) (*simpleSite, error) {
	ca, err := gsi.NewCA(gsi.DN("/O=Grid/OU="+name+"/CN=CA"), 24*time.Hour)
	if err != nil {
		return nil, err
	}
	hostCred, err := ca.Issue(gsi.IssueOptions{
		Subject: gsi.DN("/O=Grid/OU=" + name + "/CN=host"), Lifetime: 12 * time.Hour, Host: true,
	})
	if err != nil {
		return nil, err
	}
	userCred, err := ca.Issue(gsi.IssueOptions{
		Subject: gsi.DN("/O=Grid/OU=" + name + "/CN=alice"), Lifetime: 12 * time.Hour,
	})
	if err != nil {
		return nil, err
	}
	trust := gsi.NewTrustStore()
	trust.AddCA(ca.Certificate())
	storage := dsi.NewMemStorage()
	storage.AddUser("alice")
	gm := authz.NewGridmap()
	gm.AddEntry(userCred.DN(), "alice")
	srv, err := gridftp.NewServer(nw.Host(name), gridftp.ServerConfig{
		HostCred: hostCred, Trust: trust, Authz: gm, Storage: storage, EndpointName: name,
		Obs: d.Obs, Streams: d.Streams, Tenants: d.Tenants,
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.ListenAndServe(gridftp.DefaultPort)
	if err != nil {
		return nil, err
	}
	return &simpleSite{name: name, trust: trust, user: userCred, storage: storage, addr: addr.String(), nw: nw, d: d}, nil
}

func (s *simpleSite) putFile(path string, content []byte) error {
	f, err := s.storage.Create("alice", path)
	if err != nil {
		return err
	}
	defer f.Close()
	return dsi.WriteAll(f, content)
}

func (s *simpleSite) connect(from *netsim.Host) (*gridftp.Client, error) {
	proxy, err := gsi.NewProxy(s.user, gsi.ProxyOptions{})
	if err != nil {
		return nil, err
	}
	c, err := gridftp.DialWithOptions(from, s.addr, proxy, s.trust, gridftp.DialOptions{Obs: s.d.Obs, Streams: s.d.Streams})
	if err != nil {
		return nil, err
	}
	if err := c.Delegate(2 * time.Hour); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// runLite drives GridFTP-Lite (§III.B): SSH-style password logon, control
// channel tunneled, cleartext data channel, no delegation.
func runLite(nw *netsim.Network, size, parallel int, d *admin.Daemon) error {
	ca, err := gsi.NewCA("/O=x/CN=CA", 24*time.Hour)
	if err != nil {
		return err
	}
	hostCred, err := ca.Issue(gsi.IssueOptions{Subject: "/O=x/CN=host", Lifetime: 12 * time.Hour, Host: true})
	if err != nil {
		return err
	}
	dir := pam.NewLDAPDirectory("dc=x")
	dir.AddEntry("alice", "pw")
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "alice"})
	stack := pam.NewStack("sshd", accounts,
		pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}})
	storage := dsi.NewMemStorage()
	storage.AddUser("alice")
	trust := gsi.NewTrustStore()
	trust.AddCA(ca.Certificate())
	gfs, err := gridftp.NewServer(nw.Host("siteA"), gridftp.ServerConfig{
		HostCred: hostCred, Trust: trust, Authz: authz.NewGridmap(), Storage: storage,
		Obs: d.Obs, Streams: d.Streams, Tenants: d.Tenants,
	})
	if err != nil {
		return err
	}
	liteSrv := &baseline.LiteServer{HostCred: hostCred, Auth: stack, GridFTP: gfs}
	addr, err := liteSrv.ListenAndServe(nw.Host("siteA"), baseline.LitePort)
	if err != nil {
		return err
	}
	defer liteSrv.Close()

	payload := make([]byte, size)
	f, err := storage.Create("alice", "/data.bin")
	if err != nil {
		return err
	}
	dsi.WriteAll(f, payload)
	f.Close()

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
