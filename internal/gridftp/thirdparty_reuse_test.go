package gridftp

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/leakcheck"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

// tpPair is a source and a destination site in one trust domain (each
// trusts the other's CA, the source user maps at both) plus one delegated
// client session to each, every client counting its commands in its own
// registry.
type tpPair struct {
	t              *testing.T
	nw             *netsim.Network
	srcSite        *site
	dstSite        *site
	src, dst       *Client
	srcObs, dstObs *obs.Obs
	files          int
}

type tpPairOptions struct {
	stripes int // > 0: both sites are striped servers with this many DTP nodes
	server  func(*ServerConfig)
	dial    DialOptions
}

func newTPPair(t *testing.T, o tpPairOptions) *tpPair {
	t.Helper()
	nw := netsim.NewNetwork()
	mut := func(name string) func(*ServerConfig) {
		return func(cfg *ServerConfig) {
			for i := 0; i < o.stripes; i++ {
				cfg.StripeNodes = append(cfg.StripeNodes, StripeNode{Host: nw.Host(fmt.Sprintf("%s-dtp%d", name, i))})
			}
			if o.server != nil {
				o.server(cfg)
			}
		}
	}
	p := &tpPair{
		t: t, nw: nw,
		srcSite: newSite(t, nw, "siteA", mut("siteA")),
		dstSite: newSite(t, nw, "siteB", mut("siteB")),
		srcObs:  obs.Nop(), dstObs: obs.Nop(),
	}
	p.dstSite.trust.AddCA(p.srcSite.ca.Certificate())
	p.srcSite.trust.AddCA(p.dstSite.ca.Certificate())
	p.dstSite.gridmap.AddEntry(p.srcSite.user.DN(), "alice")
	p.src = p.connect(p.srcSite, p.srcObs, o.dial)
	p.dst = p.connect(p.dstSite, p.dstObs, o.dial)
	return p
}

func (p *tpPair) connect(s *site, o *obs.Obs, opts DialOptions) *Client {
	p.t.Helper()
	proxy, err := gsi.NewProxy(p.srcSite.user, gsi.ProxyOptions{})
	if err != nil {
		p.t.Fatal(err)
	}
	opts.Obs = o
	c, err := DialWithOptions(p.nw.Host("laptop"), s.addr, proxy, s.trust, opts)
	if err != nil {
		p.t.Fatal(err)
	}
	p.t.Cleanup(func() { c.Close() })
	if err := c.Delegate(time.Hour); err != nil {
		p.t.Fatal(err)
	}
	return c
}

// payload is file n's content: every file has its own length and its own
// bytes, so a block of one file surfacing in another cannot go unnoticed.
func (p *tpPair) payload(n int) []byte {
	data := pattern(40000 + 7001*n)
	for i := range data {
		data[i] ^= byte(n + 1)
	}
	return data
}

// transfer moves the next file source → destination third-party and
// compares the destination byte for byte.
func (p *tpPair) transfer(opts ThirdPartyOptions) {
	p.t.Helper()
	n := p.files
	p.files++
	name := fmt.Sprintf("/f%03d.bin", n)
	p.srcSite.putFile(p.t, name, p.payload(n))
	if _, err := ThirdParty(p.src, name, p.dst, name, opts); err != nil {
		p.t.Fatalf("file %d: %v", n, err)
	}
	if got := p.dstSite.readFile(p.t, name); !bytes.Equal(got, p.payload(n)) {
		p.t.Fatalf("file %d: destination differs from source (%d bytes, want %d)", n, len(got), len(p.payload(n)))
	}
}

func commandCount(o *obs.Obs, cmd string) int64 {
	return o.Registry().Counter(obs.Name("gridftp.client.commands", "cmd="+cmd)).Value()
}

// interSiteConns counts the data connections established between the two
// sites' data movers (the PI hosts, or every stripe-node pair).
func (p *tpPair) interSiteConns(stripes int) int64 {
	if stripes == 0 {
		return p.nw.LinkStats("siteA", "siteB").Conns
	}
	var n int64
	for i := 0; i < stripes; i++ {
		for j := 0; j < stripes; j++ {
			n += p.nw.LinkStats(fmt.Sprintf("siteA-dtp%d", i), fmt.Sprintf("siteB-dtp%d", j)).Conns
		}
	}
	return n
}

func TestThirdPartyReusesDataPath(t *testing.T) {
	const files = 5
	disable := func(cfg *ServerConfig) { cfg.DisableChannelCache = true }
	for _, tc := range []struct {
		name        string
		opts        tpPairOptions
		parallelism int
		wirings     int64 // PASV/SPAS sent to the destination = PORT/SPOR sent to the source
		conns       int64
	}{
		{name: "one stream", parallelism: 1, wirings: 1, conns: 1},
		{name: "four streams", parallelism: 4, wirings: 1, conns: 4},
		{name: "striped", opts: tpPairOptions{stripes: 2}, parallelism: 2, wirings: 1, conns: 2},
		{name: "client cache off", opts: tpPairOptions{dial: DialOptions{DisableChannelCache: true}},
			parallelism: 1, wirings: files, conns: files},
		{name: "server cache off", opts: tpPairOptions{server: disable},
			parallelism: 1, wirings: 1, conns: files},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newTPPair(t, tc.opts)
			for _, c := range []*Client{p.src, p.dst} {
				if err := c.SetParallelism(tc.parallelism); err != nil {
					t.Fatal(err)
				}
			}
			striped := tc.opts.stripes > 0
			for i := 0; i < files; i++ {
				p.transfer(ThirdPartyOptions{Striped: striped})
			}
			listen, connect := "PASV", "PORT"
			if striped {
				listen, connect = "SPAS", "SPOR"
			}
			if got := commandCount(p.dstObs, listen); got != tc.wirings {
				t.Errorf("%s sent %d times for %d files, want %d", listen, got, files, tc.wirings)
			}
			if got := commandCount(p.srcObs, connect); got != tc.wirings {
				t.Errorf("%s sent %d times for %d files, want %d", connect, got, files, tc.wirings)
			}
			if got := p.interSiteConns(tc.opts.stripes); got != tc.conns {
				t.Errorf("%d inter-site data connections for %d files, want %d", got, files, tc.conns)
			}
		})
	}
}

// TestThirdPartyRewiresAfterInvalidation walks one pair through everything
// that must drop the established data path: each step is followed by a
// transfer that has to start from PASV/PORT again and land byte-exact, and
// a transfer with nothing in between must not.
func TestThirdPartyRewiresAfterInvalidation(t *testing.T) {
	p := newTPPair(t, tpPairOptions{})
	p.srcSite.putFile(t, "/side.bin", pattern(12345))
	p.dstSite.putFile(t, "/side.bin", pattern(12345))
	both := func(f func(c *Client) error) func() error {
		return func() error {
			if err := f(p.src); err != nil {
				return err
			}
			return f(p.dst)
		}
	}
	get := func(c *Client) func() error {
		return func() error {
			sink := dsi.NewBufferFile(nil)
			if _, err := c.Get("/side.bin", sink); err != nil {
				return err
			}
			if !bytes.Equal(sink.Bytes(), pattern(12345)) {
				return fmt.Errorf("interleaved Get returned wrong bytes")
			}
			return nil
		}
	}
	// ownPASV/ownPORT count what the sessions' own List and Get send; they
	// land on the same counters as the third-party wirings.
	var wirings, ownPASV, ownPORT, conns int64
	check := func(step string, wantWire bool, streams int64) {
		t.Helper()
		if wantWire {
			wirings++
			conns += streams
		}
		p.transfer(ThirdPartyOptions{})
		if pasv, port := commandCount(p.dstObs, "PASV")-ownPASV, commandCount(p.srcObs, "PORT")-ownPORT; pasv != wirings || port != wirings {
			t.Fatalf("after %s: destination PASV=%d source PORT=%d, want %d each", step, pasv, port, wirings)
		}
		// The interleaved Gets and the List run laptop↔site, so the
		// siteA↔siteB link carries third-party channels only.
		if got := p.interSiteConns(0); got != conns {
			t.Fatalf("after %s: %d inter-site connections, want %d", step, got, conns)
		}
	}
	check("first transfer", true, 1)
	check("nothing", false, 0)
	for _, step := range []struct {
		name    string
		do      func() error
		streams int64
	}{
		{"parallelism 1→4", both(func(c *Client) error { return c.SetParallelism(4) }), 4},
		{"parallelism 4→1", both(func(c *Client) error { return c.SetParallelism(1) }), 1},
		{"PROT P", both(func(c *Client) error { return c.SetProt(ProtPrivate) }), 1},
		{"DCSC P on the destination", func() error { return p.dst.SendDCSC(p.srcSite.user) }, 1},
		{"DCSC D on the destination", p.dst.ResetDCSC, 1},
		{"Get on the destination session", get(p.dst), 1},
		{"Get on the source session", func() error { ownPORT++; return get(p.src)() }, 1},
		{"List on the destination session", func() error { ownPASV++; _, err := p.dst.List("/"); return err }, 1},
	} {
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		check(step.name, true, step.streams)
		check("nothing after "+step.name, false, 0)
	}
}

// TestThirdPartyRefusedSourceFailsFast: on a reused pair the destination
// is already reading its pooled channel when the source refuses RETR, so
// the refusal has to reach it through that channel — not through the
// 60 s first-block deadline or the accept timeout.
func TestThirdPartyRefusedSourceFailsFast(t *testing.T) {
	p := newTPPair(t, tpPairOptions{server: func(cfg *ServerConfig) { cfg.DataTimeout = 3 * time.Second }})
	p.transfer(ThirdPartyOptions{})
	time.Sleep(200 * time.Millisecond)
	before := runtime.NumGoroutine()

	start := time.Now()
	_, err := ThirdParty(p.src, "/missing.bin", p.dst, "/missing.bin", ThirdPartyOptions{})
	if err == nil {
		t.Fatal("transfer of a missing source file succeeded")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("refused transfer took %v to fail (want < 1s): %v", took, err)
	}

	p.transfer(ThirdPartyOptions{})
	if pasv := commandCount(p.dstObs, "PASV"); pasv != 2 {
		t.Fatalf("PASV sent %d times, want 2 (the pair must re-wire after a failed transfer)", pasv)
	}
	if after := leakcheck.AtMost(before); after > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines %d → %d across a refused transfer:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}
