package experiments

import (
	"fmt"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/world"
)

// AblationBlockSizeConfig parameterizes the MODE E block size sweep.
type AblationBlockSizeConfig struct {
	FileBytes  int
	BlockSizes []int
	Link       netsim.LinkParams
}

// DefaultAblationBlockSize sweeps 8 KiB - 4 MiB blocks.
func DefaultAblationBlockSize() AblationBlockSizeConfig {
	return AblationBlockSizeConfig{
		FileBytes:  16 << 20,
		BlockSizes: []int{8 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20},
		Link:       netsim.LinkParams{Bandwidth: 60e6, RTT: 5 * time.Millisecond, StreamWindow: 1 << 22},
	}
}

// RunAblationBlockSize sweeps the MODE E block size: small blocks pay more
// framing and scheduling overhead but give finer restart granularity —
// the trade DESIGN.md calls out behind the 256 KiB default.
func RunAblationBlockSize(cfg AblationBlockSizeConfig) (*Table, error) {
	t := &Table{
		ID:      "ABL-blocksize",
		Title:   "MODE E block size: framing overhead vs restart granularity",
		Paper:   "design choice behind GridFTP's extended block mode (GFD-R-P.020); default 256 KiB",
		Columns: []string{"block size", "throughput", "relative", "restart granularity"},
	}
	var base float64
	for _, bs := range cfg.BlockSizes {
		r, err := measureBlockSizeRate(cfg, bs)
		if err != nil {
			return nil, fmt.Errorf("block=%d: %w", bs, err)
		}
		if base == 0 {
			base = r
		}
		t.AddRow(formatBytes(bs), mbps(r), fmt.Sprintf("%.2fx", r/base), formatBytes(bs))
	}
	t.Note("file %d MiB, 4 parallel streams; each block is the unit of loss on restart", cfg.FileBytes>>20)
	return t, nil
}

// measureBlockSizeRate runs one download at the given MODE E block size.
func measureBlockSizeRate(cfg AblationBlockSizeConfig, blockSize int) (float64, error) {
	nw := netsim.NewNetwork()
	nw.SetLink("client", "siteA", cfg.Link)
	s, err := world.NewSite(nw, "siteA", siteConfig)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	if err := s.Put("/b.bin", pattern(cfg.FileBytes)); err != nil {
		return 0, err
	}
	c, err := s.Connect(nw.Host("client"), gridftp.DialOptions{})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := c.SetParallelism(4); err != nil {
		return 0, err
	}
	if err := c.SetBlockSize(blockSize); err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := c.Get("/b.bin", dsi.NewBufferFile(nil)); err != nil {
		return 0, err
	}
	return rate(int64(cfg.FileBytes), time.Since(start)), nil
}

func formatBytes(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%d MiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%d KiB", n>>10)
	}
	return fmt.Sprintf("%d B", n)
}

// AblationCacheConfig parameterizes the channel-caching ablation.
type AblationCacheConfig struct {
	Files     int
	FileBytes int
	RTT       time.Duration
}

// DefaultAblationCache moves 24 files of 64 KiB at 15 ms RTT.
func DefaultAblationCache() AblationCacheConfig {
	return AblationCacheConfig{Files: 24, FileBytes: 64 << 10, RTT: 15 * time.Millisecond}
}

// RunAblationChannelCache measures data channel caching on vs off: with
// caching each file pays only its command round trip; without it every
// file re-pays TCP connect plus the DCAU handshake.
func RunAblationChannelCache(cfg AblationCacheConfig) (*Table, error) {
	t := &Table{
		ID:      "ABL-cache",
		Title:   "Data channel caching across transfers",
		Paper:   "the channel-reuse optimization behind GridFTP's small-file performance (§II.A [11,12])",
		Columns: []string{"channel cache", "elapsed", "per-file cost", "speedup"},
	}
	var baseline time.Duration
	for _, cached := range []bool{false, true} {
		d, err := measureCacheRun(cfg, cached)
		if err != nil {
			return nil, err
		}
		if !cached {
			baseline = d
		}
		label := "disabled"
		if cached {
			label = "enabled"
		}
		t.AddRow(label,
			d.Round(time.Millisecond).String(),
			(d / time.Duration(cfg.Files)).Round(time.Millisecond).String(),
			fmt.Sprintf("%.1fx", float64(baseline)/float64(d)))
	}
	t.Note("%d files x %d KiB, %v RTT, one session; cache-off re-handshakes DCAU per file",
		cfg.Files, cfg.FileBytes/1024, cfg.RTT)
	return t, nil
}

// measureCacheRun times a many-small-files session with caching on/off.
func measureCacheRun(cfg AblationCacheConfig, cached bool) (time.Duration, error) {
	nw := netsim.NewNetwork()
	nw.SetDefaultLink(netsim.LinkParams{Bandwidth: 50e6, RTT: cfg.RTT, StreamWindow: 1 << 22})
	scfg := siteConfig
	scfg.DisableChannelCache = !cached
	s, err := world.NewSite(nw, "siteA", scfg)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	for i := 0; i < cfg.Files; i++ {
		if err := s.Put(fmt.Sprintf("/c%03d", i), pattern(cfg.FileBytes)); err != nil {
			return 0, err
		}
	}
	c, err := s.Connect(nw.Host("laptop"), gridftp.DialOptions{DisableChannelCache: !cached})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	start := time.Now()
	for i := 0; i < cfg.Files; i++ {
		if _, err := c.Get(fmt.Sprintf("/c%03d", i), dsi.NewBufferFile(nil)); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// AblationTransportConfig parameterizes the UDT-vs-TCP ablation.
type AblationTransportConfig struct {
	FileBytes int
	Link      netsim.LinkParams
}

// DefaultAblationTransport uses a lossy, high-RTT path where per-stream
// TCP collapses.
func DefaultAblationTransport() AblationTransportConfig {
	return AblationTransportConfig{
		FileBytes: 8 << 20,
		Link: netsim.LinkParams{
			Bandwidth: 30e6, RTT: 40 * time.Millisecond, Loss: 0.001, StreamWindow: 64 << 10,
		},
	}
}

// RunAblationTransport reproduces the motivation for GridFTP's extensible
// I/O layer (§II.A [8,9]): on a lossy high-RTT path, a rate-based
// transport (UDT) reached through XIO beats window-/loss-limited TCP —
// with parallelism as TCP's partial workaround in between.
func RunAblationTransport(cfg AblationTransportConfig) (*Table, error) {
	t := &Table{
		ID:      "ABL-transport",
		Title:   "Data channel transport: TCP vs parallel TCP vs UDT (via XIO)",
		Paper:   `§II.A: the XIO interface "allows GridFTP to target high-performance wide-area communication protocols such as UDT [9]"`,
		Columns: []string{"transport", "streams", "throughput", "vs tcp x1"},
	}
	var base float64
	for _, row := range []struct {
		name    string
		tr      netsim.Transport
		streams int
	}{
		{"tcp", netsim.TransportTCP, 1},
		{"tcp", netsim.TransportTCP, 8},
		{"udt", netsim.TransportUDT, 1},
	} {
		r, err := transportRate(cfg, row.tr, row.streams)
		if err != nil {
			return nil, err
		}
		if base == 0 {
			base = r
		}
		t.AddRow(row.name, fmt.Sprintf("%d", row.streams), mbps(r), fmt.Sprintf("%.1fx", r/base))
	}
	t.Note("link: %.0f MB/s, %v RTT, %.2f%% loss, %d KiB windows; file %d MiB",
		cfg.Link.Bandwidth/1e6, cfg.Link.RTT, cfg.Link.Loss*100, cfg.Link.StreamWindow/1024, cfg.FileBytes>>20)
	return t, nil
}

func transportRate(cfg AblationTransportConfig, tr netsim.Transport, streams int) (float64, error) {
	nw := netsim.NewNetwork()
	nw.SetLink("client", "siteA", cfg.Link)
	s, err := world.NewSite(nw, "siteA", siteConfig)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	if err := s.Put("/t.bin", pattern(cfg.FileBytes)); err != nil {
		return 0, err
	}
	c, err := s.Connect(nw.Host("client"), gridftp.DialOptions{})
	if err != nil {
		return 0, err
	}
	defer c.Close()
	if err := c.SetTransport(tr); err != nil {
		return 0, err
	}
	if err := c.SetParallelism(streams); err != nil {
		return 0, err
	}
	start := time.Now()
	if _, err := c.Get("/t.bin", dsi.NewBufferFile(nil)); err != nil {
		return 0, err
	}
	return rate(int64(cfg.FileBytes), time.Since(start)), nil
}
