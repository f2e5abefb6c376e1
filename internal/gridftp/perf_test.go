package gridftp

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

// TestPerfMarkerWireRoundTrip sends a 112 marker through a real control
// connection — WriteReply multi-line framing, ReadReply reassembly — and
// checks every field survives.
func TestPerfMarkerWireRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := ftp.NewConn(a), ftp.NewConn(b)

	want := PerfMarker{
		Timestamp:    time.Unix(1328000000, 250_000_000),
		Stripe:       3,
		StripeBytes:  1 << 20,
		TotalStripes: 4,
	}
	go ca.WriteReply(CodePerfMarker, perfMarkerLines(want)...)
	r, err := cb.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != CodePerfMarker {
		t.Fatalf("code %d, want %d", r.Code, CodePerfMarker)
	}
	got, ok := ParsePerfMarker(r)
	if !ok {
		t.Fatalf("ParsePerfMarker rejected %v", r.Lines)
	}
	if got.Stripe != want.Stripe || got.StripeBytes != want.StripeBytes || got.TotalStripes != want.TotalStripes {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	// Timestamps are rendered with millisecond precision.
	if d := got.Timestamp.Sub(want.Timestamp); d < -2*time.Millisecond || d > 2*time.Millisecond {
		t.Fatalf("timestamp drift %v (got %v, want %v)", d, got.Timestamp, want.Timestamp)
	}
}

func TestParsePerfMarkerRejects(t *testing.T) {
	good := perfMarkerLines(PerfMarker{Stripe: 0, StripeBytes: 10, TotalStripes: 1})
	cases := []ftp.Reply{
		{Code: ftp.CodeRestartMarker, Lines: good},                  // wrong code
		{Code: CodePerfMarker, Lines: []string{"Range Marker 0-5"}}, // wrong body
		{Code: CodePerfMarker, Lines: good[:2]},                     // fields missing
		{Code: CodePerfMarker},                                      // empty
	}
	for i, r := range cases {
		if _, ok := ParsePerfMarker(r); ok {
			t.Errorf("case %d: reply %v should not parse as a perf marker", i, r.Lines)
		}
	}
}

// TestPerfTrackerEmitter drives the tracker from concurrent writers (as
// the data goroutines do) and checks what it frames: a tick carries the
// stripes that moved and nothing twice, the closing set every stripe with
// its end total.
func TestPerfTrackerEmitter(t *testing.T) {
	tr := &perfTracker{}
	var wg sync.WaitGroup
	const stripes, adds, chunk = 4, 50, 1024
	for s := 0; s < stripes; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				tr.add(s, chunk)
			}
		}(s)
	}
	wg.Wait()
	if got := tr.total(); got != stripes*adds*chunk {
		t.Fatalf("tracker total %d, want %d", got, stripes*adds*chunk)
	}

	if got := len(tr.frame(false)); got != stripes {
		t.Fatalf("first tick framed %d markers, want %d", got, stripes)
	}
	if got := len(tr.frame(false)); got != 0 {
		t.Fatalf("a tick with nothing moved framed %d markers", got)
	}
	tr.add(2, chunk)
	if got := len(tr.frame(false)); got != 1 {
		t.Fatalf("a tick with one stripe moved framed %d markers", got)
	}

	// The closing set reports every stripe with its end total.
	final := make(map[int]int64)
	for _, r := range tr.frame(true) {
		m, ok := ParsePerfMarker(r)
		if !ok {
			t.Fatalf("framed reply does not parse: %v", r)
		}
		final[m.Stripe] = m.StripeBytes
		if m.TotalStripes != stripes {
			t.Errorf("marker reports %d total stripes, want %d", m.TotalStripes, stripes)
		}
	}
	if len(final) != stripes {
		t.Fatalf("markers covered %d stripes, want %d", len(final), stripes)
	}
	for s := 0; s < stripes; s++ {
		want := int64(adds * chunk)
		if s == 2 {
			want += chunk
		}
		if final[s] != want {
			t.Errorf("stripe %d final bytes %d, want %d", s, final[s], want)
		}
	}
}

// TestPerfEmitterDisabled: with no marker interval a transfer has no markers,
// the closing set included.
func TestPerfEmitterDisabled(t *testing.T) {
	sess := &session{srv: &Server{}}
	finish := sess.startMarkers(func(bool) []ftp.Reply {
		t.Error("markers framed with interval 0")
		return nil
	})
	if closing := finish(); len(closing) != 0 {
		t.Errorf("closing set of %d replies with interval 0", len(closing))
	}
}

// TestPerfMarkersDuringTransfer is the end-to-end round trip the ISSUE
// asks for: a multi-stripe MODE E PUT and GET against a live server, with
// the client parsing in-flight 112 replies; the per-stripe totals must sum
// to exactly the bytes on disk.
func TestPerfMarkersDuringTransfer(t *testing.T) {
	nw := netsim.NewNetwork()
	// Shape the link so writers are paced: with an unshaped pipe one fast
	// stream can drain the whole job queue before the others get
	// scheduled, collapsing the transfer to a single active stripe.
	nw.SetLink("laptop", "siteA", netsim.LinkParams{RTT: 2 * time.Millisecond})
	s := newSite(t, nw, "siteA", func(c *ServerConfig) {
		c.MarkerInterval = 5 * time.Millisecond
	})

	proxy, err := gsi.NewProxy(s.user, gsi.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	o := obs.Nop()
	c, err := DialWithOptions(nw.Host("laptop"), s.addr, proxy, s.trust, DialOptions{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.Delegate(time.Hour); err != nil {
		t.Fatal(err)
	}
	const stripes = 4
	if err := c.SetParallelism(stripes); err != nil {
		t.Fatal(err)
	}

	var cbMarkers int
	c.OnPerf(func(m PerfMarker) {
		if m.StripeBytes <= 0 || m.Stripe < 0 || m.Stripe >= m.TotalStripes {
			t.Errorf("implausible marker %+v", m)
		}
		cbMarkers++
	})

	// PUT: the receiving server tracks per-stripe bytes and emits 112s on
	// our control channel while we send.
	payload := pattern(16*DefaultBlockSize + 12345)
	stats, err := c.Put("/perf.bin", dsi.NewBufferFile(payload))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != int64(len(payload)) {
		t.Fatalf("put moved %d bytes, want %d", stats.Bytes, len(payload))
	}
	total, gotStripes, markers := c.PerfSnapshot()
	if total != int64(len(payload)) {
		t.Fatalf("perf total %d, want %d (stripes %d, markers %d)", total, len(payload), gotStripes, markers)
	}
	if gotStripes < 2 || gotStripes > stripes {
		t.Errorf("perf markers covered %d stripes, want 2..%d (multi-stripe)", gotStripes, stripes)
	}
	if markers < gotStripes {
		t.Errorf("observed %d markers, want >= %d (one per active stripe)", markers, gotStripes)
	}
	if cbMarkers != markers {
		t.Errorf("OnPerf saw %d markers, PerfSnapshot counted %d", cbMarkers, markers)
	}
	if disk := s.readFile(t, "/perf.bin"); !bytes.Equal(disk, payload) {
		t.Fatalf("disk content mismatch (%d vs %d bytes)", len(disk), len(payload))
	}

	// GET: the sending server reports its stripes; totals must again match.
	dst := dsi.NewBufferFile(nil)
	if _, err := c.Get("/perf.bin", dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), payload) {
		t.Fatalf("get content mismatch (%d vs %d bytes)", len(dst.Bytes()), len(payload))
	}
	total, gotStripes, _ = c.PerfSnapshot()
	if total != int64(len(payload)) {
		t.Fatalf("perf total after GET %d, want %d", total, len(payload))
	}
	if gotStripes < 2 || gotStripes > stripes {
		t.Errorf("GET perf markers covered %d stripes, want 2..%d", gotStripes, stripes)
	}

	// Client-side metrics fed by the marker stream and the send path.
	reg := o.Metrics
	if v := reg.Counter("gridftp.client.perf_markers").Value(); v <= 0 {
		t.Errorf("gridftp.client.perf_markers = %d, want > 0", v)
	}
	if v := reg.Counter("gridftp.client.bytes_sent").Value(); v != int64(len(payload)) {
		t.Errorf("gridftp.client.bytes_sent = %d, want %d", v, len(payload))
	}
	if v := reg.Gauge("gridftp.client.perf_bytes").Value(); v != int64(len(payload)) {
		t.Errorf("gridftp.client.perf_bytes gauge = %d, want %d", v, len(payload))
	}
}

// TestFeatAdvertisesPerf pins the FEAT listing: clients discover the
// extension before relying on 112 replies.
func TestFeatAdvertisesPerf(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), false)
	feats, err := c.Features()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range feats {
		if f == "PERF" {
			return
		}
	}
	t.Fatalf("FEAT does not advertise PERF: %v", feats)
}
