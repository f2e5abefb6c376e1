package experiments

import (
	"fmt"
	"sync"
	"time"

	"gridftp.dev/instant/internal/baseline"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/world"
)

// E7Config parameterizes the lots-of-small-files experiment.
type E7Config struct {
	Files     int
	FileBytes int
	RTT       time.Duration
	// Concurrency is the session count for the concurrent configuration.
	Concurrency int
}

// DefaultE7 uses a 10 ms RTT path and 64 KiB files.
func DefaultE7() E7Config {
	return E7Config{Files: 48, FileBytes: 64 << 10, RTT: 10 * time.Millisecond, Concurrency: 4}
}

// RunE7SmallFiles reproduces the lots-of-small-files optimizations the
// paper credits GridFTP with (§II.A, §VII: pipelining [11] and concurrency
// [12]): when files are small, per-file round trips and channel setup
// dominate, and each optimization removes one of those costs.
func RunE7SmallFiles(cfg E7Config) (*Table, error) {
	t := &Table{
		ID:      "E7",
		Title:   "Lots of small files: per-file costs vs pipelining and concurrency",
		Paper:   `§II.A: "optimized to handle ... datasets comprising lots of small files" via pipelining [11] and concurrency [12]`,
		Columns: []string{"configuration", "elapsed", "files/s", "speedup"},
	}
	nw := netsim.NewNetwork()
	nw.SetDefaultLink(netsim.LinkParams{
		Bandwidth: 50e6, RTT: cfg.RTT, StreamWindow: 1 << 22,
	})
	s, err := world.NewSite(nw, "siteA", siteConfig)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	paths := make([]string, cfg.Files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/small/f%04d", i)
	}
	if err := s.Storage.Mkdir(world.User, "/small"); err != nil {
		return nil, err
	}
	for _, p := range paths {
		if err := s.Put(p, pattern(cfg.FileBytes)); err != nil {
			return nil, err
		}
	}
	laptop := nw.Host("laptop")

	// (a) Naive: a fresh session per file (scp-style), paying login and
	// channel setup every time.
	naive, err := timeIt(func() error {
		for _, p := range paths {
			c, err := s.Connect(laptop, gridftp.DialOptions{})
			if err != nil {
				return err
			}
			if _, err := c.Get(p, dsi.NewBufferFile(nil)); err != nil {
				c.Close()
				return err
			}
			c.Close()
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("naive: %w", err)
	}

	// (b) One session, sequential commands (channel caching on).
	sequential, err := timeIt(func() error {
		c, err := s.Connect(laptop, gridftp.DialOptions{})
		if err != nil {
			return err
		}
		defer c.Close()
		for _, p := range paths {
			if _, err := c.Get(p, dsi.NewBufferFile(nil)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("sequential: %w", err)
	}

	// (c) Pipelined commands (GridFTP pipelining).
	pipelined, err := timeIt(func() error {
		c, err := s.Connect(laptop, gridftp.DialOptions{})
		if err != nil {
			return err
		}
		defer c.Close()
		items := make([]gridftp.GetItem, len(paths))
		for i, p := range paths {
			items[i] = gridftp.GetItem{Path: p, Dst: dsi.NewBufferFile(nil)}
		}
		return c.GetMany(items)
	})
	if err != nil {
		return nil, fmt.Errorf("pipelined: %w", err)
	}

	// (d) Concurrency: C sessions, each pipelining a slice of the files.
	concurrent, err := timeIt(func() error {
		var wg sync.WaitGroup
		errs := make(chan error, cfg.Concurrency)
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				c, err := s.Connect(laptop, gridftp.DialOptions{})
				if err != nil {
					errs <- err
					return
				}
				defer c.Close()
				var items []gridftp.GetItem
				for i := w; i < len(paths); i += cfg.Concurrency {
					items = append(items, gridftp.GetItem{Path: paths[i], Dst: dsi.NewBufferFile(nil)})
				}
				if err := c.GetMany(items); err != nil {
					errs <- err
				}
			}(w)
		}
		wg.Wait()
		select {
		case err := <-errs:
			return err
		default:
			return nil
		}
	})
	if err != nil {
		return nil, fmt.Errorf("concurrent: %w", err)
	}

	rows := []struct {
		name string
		d    time.Duration
	}{
		{"fresh session per file (scp-style)", naive},
		{"one session, sequential (channel caching)", sequential},
		{"one session, pipelined commands", pipelined},
		{fmt.Sprintf("%d concurrent pipelined sessions", cfg.Concurrency), concurrent},
	}
	for _, r := range rows {
		t.AddRow(r.name,
			r.d.Round(time.Millisecond).String(),
			fmt.Sprintf("%.1f", float64(cfg.Files)/r.d.Seconds()),
			fmt.Sprintf("%.1fx", float64(naive)/float64(r.d)))
	}
	t.Note("%d files x %d KiB over a %v RTT path", cfg.Files, cfg.FileBytes/1024, cfg.RTT)
	return t, nil
}

func timeIt(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// E8Config parameterizes the striping experiment.
type E8Config struct {
	FileBytes int
	Stripes   []int
	// PerLink is the bandwidth of each host pair (one NIC's worth).
	PerLink netsim.LinkParams
}

// DefaultE8 gives each node link 8 MB/s so aggregate scales with stripes.
func DefaultE8() E8Config {
	return E8Config{
		FileBytes: 8 << 20,
		Stripes:   []int{1, 2, 4, 8},
		PerLink: netsim.LinkParams{
			Bandwidth: 8e6, RTT: 4 * time.Millisecond, StreamWindow: 1 << 22,
		},
	}
}

// RunE8Striping reproduces the striped-server scaling behaviour (§II.B,
// [4]): a striped transfer crosses one link per DTP-node pair, so
// aggregate throughput grows with stripe count until another bottleneck
// binds.
func RunE8Striping(cfg E8Config) (*Table, error) {
	t := &Table{
		ID:      "E8",
		Title:   "Striped server scaling (SPAS/SPOR across DTP nodes)",
		Paper:   `§II.B: "a striped server might use one server PI on the head node ... and a DTP on all other nodes"; [4] The Globus Striped GridFTP Framework`,
		Columns: []string{"stripes", "throughput", "scaling vs 1 stripe"},
	}
	var base float64
	for _, stripes := range cfg.Stripes {
		r, err := measureStripedRate(cfg, stripes)
		if err != nil {
			return nil, fmt.Errorf("stripes=%d: %w", stripes, err)
		}
		if stripes == cfg.Stripes[0] {
			base = r
		}
		t.AddRow(fmt.Sprintf("%d", stripes), mbps(r), fmt.Sprintf("%.2fx", r/base))
	}
	t.Note("every host pair carries %.0f MB/s (one data-mover NIC); file %d MiB; parallelism = stripes",
		cfg.PerLink.Bandwidth/1e6, cfg.FileBytes>>20)
	return t, nil
}

// measureStripedRate runs one striped third-party transfer between two
// clusters of the given stripe count and returns bytes/sec.
func measureStripedRate(cfg E8Config, stripes int) (float64, error) {
	nw := netsim.NewNetwork()
	nw.SetDefaultLink(cfg.PerLink)
	cluster := func(name string) (*world.Site, error) {
		scfg := siteConfig
		for i := 0; i < stripes; i++ {
			scfg.StripeNodes = append(scfg.StripeNodes,
				gridftp.StripeNode{Host: nw.Host(fmt.Sprintf("%s-dtp%d", name, i))})
		}
		return world.NewSite(nw, name, scfg)
	}
	src, err := cluster("clusterA")
	if err != nil {
		return 0, err
	}
	defer src.Close()
	dst, err := cluster("clusterB")
	if err != nil {
		return 0, err
	}
	defer dst.Close()
	// Shared trust for the data channel (striping is orthogonal to DCSC).
	src.Trust.AddCA(dst.CA.Certificate())
	dst.Trust.AddCA(src.CA.Certificate())
	dst.Gridmap.AddEntry(src.User.DN(), world.User)

	laptop := nw.Host("laptop")
	cSrc, err := src.Connect(laptop, gridftp.DialOptions{})
	if err != nil {
		return 0, err
	}
	defer cSrc.Close()
	cDst, err := gridftp.Dial(laptop, dst.Addr, src.User, dst.Trust)
	if err != nil {
		return 0, err
	}
	defer cDst.Close()
	if err := cDst.Delegate(time.Hour); err != nil {
		return 0, err
	}
	if err := cSrc.SetParallelism(stripes); err != nil {
		return 0, err
	}
	if err := cDst.SetParallelism(stripes); err != nil {
		return 0, err
	}
	if err := src.Put("/s.bin", pattern(cfg.FileBytes)); err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := gridftp.ThirdParty(cSrc, "/s.bin", cDst, "/s.bin", gridftp.ThirdPartyOptions{Striped: stripes > 1}); err != nil {
		return 0, err
	}
	return rate(int64(cfg.FileBytes), time.Since(start)), nil
}

// E9Config parameterizes the third-party-vs-relay experiment.
type E9Config struct {
	FileBytes int
	// ServerLink is the fast server-to-server path.
	ServerLink netsim.LinkParams
	// ClientLink is the slow client uplink.
	ClientLink netsim.LinkParams
}

// DefaultE9 gives servers 40 MB/s between them and the client 2 MB/s.
func DefaultE9() E9Config {
	return E9Config{
		FileBytes:  4 << 20,
		ServerLink: netsim.LinkParams{Bandwidth: 40e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22},
		ClientLink: netsim.LinkParams{Bandwidth: 2e6, RTT: 20 * time.Millisecond, StreamWindow: 1 << 22},
	}
}

// RunE9ThirdParty reproduces §VII's client-routing critique: "SCP routes
// data through the client for transfers between two remote hosts; but
// often, the two remote hosts are connected by a high-speed link whereas
// the client and remote hosts are connected by low-bandwidth links."
func RunE9ThirdParty(cfg E9Config) (*Table, error) {
	t := &Table{
		ID:      "E9",
		Title:   "Third-party transfer vs client-routed copy (slow client uplink)",
		Paper:   "§VII: SCP routes data through the client; GridFTP third-party transfers flow directly between the servers",
		Columns: []string{"method", "data path", "elapsed", "effective rate"},
	}
	nw := netsim.NewNetwork()
	nw.SetLink("siteA", "siteB", cfg.ServerLink)
	nw.SetLink("laptop", "siteA", cfg.ClientLink)
	nw.SetLink("laptop", "siteB", cfg.ClientLink)

	// GridFTP third-party.
	src, err := world.NewSite(nw, "siteA", siteConfig)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	dst, err := world.NewSite(nw, "siteB", siteConfig)
	if err != nil {
		return nil, err
	}
	defer dst.Close()
	if err := src.Put("/f.bin", pattern(cfg.FileBytes)); err != nil {
		return nil, err
	}
	laptop := nw.Host("laptop")
	cSrc, err := src.Connect(laptop, gridftp.DialOptions{})
	if err != nil {
		return nil, err
	}
	defer cSrc.Close()
	cDst, err := dst.Connect(laptop, gridftp.DialOptions{})
	if err != nil {
		return nil, err
	}
	defer cDst.Close()
	start := time.Now()
	if _, err := gridftp.ThirdParty(cSrc, "/f.bin", cDst, "/f.bin", gridftp.ThirdPartyOptions{
		DCSC: src.User, DCSCTarget: gridftp.DCSCDest,
	}); err != nil {
		return nil, fmt.Errorf("third party: %w", err)
	}
	gfDur := time.Since(start)
	t.AddRow("gridftp third-party", "siteA -> siteB (direct)",
		gfDur.Round(time.Millisecond).String(), mbps(rate(int64(cfg.FileBytes), gfDur)))

	// SCP relay through the client.
	srvA, addrA, stA, err := newSCPServer(nw, "scpA")
	if err != nil {
		return nil, err
	}
	defer srvA.Close()
	srvB, addrB, _, err := newSCPServer(nw, "scpB")
	if err != nil {
		return nil, err
	}
	defer srvB.Close()
	nw.SetLink("scpA", "scpB", cfg.ServerLink)
	nw.SetLink("laptop", "scpA", cfg.ClientLink)
	nw.SetLink("laptop", "scpB", cfg.ClientLink)
	f, err := stA.Create("alice", "/f.bin")
	if err != nil {
		return nil, err
	}
	err = dsi.WriteAll(f, pattern(cfg.FileBytes))
	f.Close()
	if err != nil {
		return nil, err
	}
	start = time.Now()
	if _, err := baseline.SCPRelay(laptop, addrA, "alice", "pw", "/f.bin", addrB, "alice", "pw", "/f.bin"); err != nil {
		return nil, fmt.Errorf("scp relay: %w", err)
	}
	scpDur := time.Since(start)
	t.AddRow("scp (client relay)", "siteA -> laptop -> siteB",
		scpDur.Round(time.Millisecond).String(), mbps(rate(int64(cfg.FileBytes), scpDur)))
	t.Note("servers share a %.0f MB/s link; the client uplink is %.0f MB/s; file %d MiB",
		cfg.ServerLink.Bandwidth/1e6, cfg.ClientLink.Bandwidth/1e6, cfg.FileBytes>>20)
	t.Note("gridftp advantage: %.1fx", float64(scpDur)/float64(gfDur))
	return t, nil
}
