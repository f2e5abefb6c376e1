package gridftp

import (
	"slices"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

// obsSite builds a site whose server records into a fresh obs bundle.
func obsSite(t *testing.T, nw *netsim.Network, name string, mut ...func(*ServerConfig)) (*site, *obs.Obs) {
	t.Helper()
	o := obs.Nop()
	muts := append([]func(*ServerConfig){func(cfg *ServerConfig) { cfg.Obs = o }}, mut...)
	return newSite(t, nw, name, muts...), o
}

func TestSiteHelpAndUnknown(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), false)

	r, err := c.cmdExpect("SITE", "HELP", 200)
	if err != nil {
		t.Fatalf("SITE HELP: %v", err)
	}
	text := strings.Join(r.Lines, "\n")
	for _, want := range []string{"HELP", "TRACE"} {
		if !strings.Contains(text, want) {
			t.Errorf("SITE HELP missing %q:\n%s", want, text)
		}
	}

	if _, err := c.cmdExpect("SITE", "FROBNICATE", 500); err != nil {
		t.Fatalf("unknown SITE subcommand: want 500, got %v", err)
	}
	if _, err := c.cmdExpect("SITE", "", 501); err != nil {
		t.Fatalf("bare SITE: want 501, got %v", err)
	}
	// The session must still work after rejected SITE commands.
	if err := c.Noop(); err != nil {
		t.Fatalf("session poisoned after SITE errors: %v", err)
	}
}

func TestSiteTraceBindsTransferSpans(t *testing.T) {
	nw := netsim.NewNetwork()
	s, o := obsSite(t, nw, "siteA")
	s.putFile(t, "/data.bin", pattern(128<<10))
	c := s.connect(t, nw.Host("laptop"), true)

	if feats, err := c.Features(); err != nil || !slices.Contains(feats, "TRACE") {
		t.Fatalf("features %v, %v: want TRACE advertised", feats, err)
	}
	caller := obs.NewTracer()
	parent := caller.StartSpan("task")
	setup(t, c, SessionSetup{Trace: parent.Context()})

	if _, err := c.Get("/data.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatal(err)
	}

	var retr *obs.SpanInfo
	for _, si := range o.Trace.Spans() {
		if si.Name == "gridftp.retr" {
			retr = &si
			break
		}
	}
	if retr == nil {
		t.Fatalf("no gridftp.retr span recorded; have %v", o.Trace.Spans())
	}
	if retr.TraceID != parent.TraceID.String() {
		t.Errorf("retr span trace id = %s, want %s", retr.TraceID, parent.TraceID)
	}
	if retr.ParentSpanID != parent.SpanID.String() {
		t.Errorf("retr span parent = %s, want %s", retr.ParentSpanID, parent.SpanID)
	}
	if !retr.Ended {
		t.Error("retr span not ended")
	}
	if retr.Attrs["path"] != "/data.bin" || retr.Attrs["size"] != "131072" || retr.Attrs["bytes"] != "131072" {
		t.Errorf("retr span attrs = %v", retr.Attrs)
	}
	// The transfer's records name the span in the same hex as the span
	// store, though they are rendered only when read.
	waitFor(t, "the transfer.complete record", func() bool {
		return slices.ContainsFunc(o.Events(), func(e obs.Event) bool { return e.Type == "transfer.complete" })
	})
	for _, e := range o.Events() {
		if strings.HasPrefix(e.Type, "transfer.") && (e.Fields["trace"] != retr.TraceID || e.Fields["span"] != retr.SpanID) {
			t.Errorf("%s record names trace %q span %q, want %s %s", e.Type, e.Fields["trace"], e.Fields["span"], retr.TraceID, retr.SpanID)
		}
	}
}

func TestSiteTraceMalformedDoesNotPoisonSession(t *testing.T) {
	nw := netsim.NewNetwork()
	s, o := obsSite(t, nw, "siteA")
	s.putFile(t, "/data.bin", pattern(64<<10))
	c := s.connect(t, nw.Host("laptop"), true)

	for _, bad := range []string{"TRACE", "TRACE nonsense", "TRACE 00-zz-zz-01"} {
		if _, err := c.cmdExpect("SITE", bad, 501); err != nil {
			t.Fatalf("SITE %s: want 501, got %v", bad, err)
		}
	}
	// The transfer still works, and its span roots locally (fresh trace).
	if _, err := c.Get("/data.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatalf("session poisoned after malformed SITE TRACE: %v", err)
	}
	for _, si := range o.Trace.Spans() {
		if si.Name == "gridftp.retr" {
			if si.ParentSpanID != "" {
				t.Errorf("span should root locally after rejected traceparent, parent=%s", si.ParentSpanID)
			}
			if si.TraceID == "" {
				t.Error("locally rooted span has no trace id")
			}
			return
		}
	}
	t.Fatal("no gridftp.retr span recorded")
}

// TestSiteTraceMalformedKeepsPriorContext proves a rejected traceparent
// leaves a previously installed context in force.
func TestSiteTraceMalformedKeepsPriorContext(t *testing.T) {
	nw := netsim.NewNetwork()
	s, o := obsSite(t, nw, "siteA")
	s.putFile(t, "/data.bin", pattern(8<<10))
	c := s.connect(t, nw.Host("laptop"), true)

	caller := obs.NewTracer()
	parent := caller.StartSpan("task")
	setup(t, c, SessionSetup{Trace: parent.Context()})
	if _, err := c.cmdExpect("SITE", "TRACE garbage", 501); err != nil {
		t.Fatalf("want 501, got %v", err)
	}
	if _, err := c.Get("/data.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatal(err)
	}
	for _, si := range o.Trace.Spans() {
		if si.Name == "gridftp.retr" {
			if si.TraceID != parent.TraceID.String() {
				t.Errorf("prior trace context lost: got %s want %s", si.TraceID, parent.TraceID)
			}
			return
		}
	}
	t.Fatal("no gridftp.retr span recorded")
}

func TestThirdPartyTraceJoinsBothEndpoints(t *testing.T) {
	nw := netsim.NewNetwork()
	srcSite, srcObs := obsSite(t, nw, "src")
	dstSite, dstObs := obsSite(t, nw, "dst")
	// Cross-trust so the third-party data channels authenticate.
	srcSite.trust.AddCA(dstSite.ca.Certificate())
	dstSite.trust.AddCA(srcSite.ca.Certificate())
	dstSite.gridmap.AddEntry(srcSite.user.DN(), "alice")
	srcSite.putFile(t, "/src.bin", pattern(256<<10))

	laptop := nw.Host("laptop")
	src := srcSite.connect(t, laptop, true)
	proxy, err := gsi.NewProxy(srcSite.user, gsi.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := Dial(laptop, dstSite.addr, proxy, dstSite.trust)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { dst.Close() })
	if err := dst.Delegate(time.Hour); err != nil {
		t.Fatal(err)
	}

	// The trace goes to both endpoints the way the hosted service sends it:
	// in each session's set-up, whose replies the transfer's first flight
	// reads.
	caller := obs.NewTracer()
	parent := caller.StartSpan("task")
	for _, c := range []*Client{src, dst} {
		if err := c.Setup(SessionSetup{Trace: parent.Context()}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ThirdParty(src, "/src.bin", dst, "/dst.bin", ThirdPartyOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := dstSite.readFile(t, "/dst.bin"); len(got) != 256<<10 {
		t.Fatalf("destination file has %d bytes", len(got))
	}

	check := func(o *obs.Obs, name string) {
		t.Helper()
		for _, si := range o.Trace.Spans() {
			if si.Name == name {
				if si.TraceID != parent.TraceID.String() {
					t.Errorf("%s trace id = %s, want %s", name, si.TraceID, parent.TraceID)
				}
				if si.ParentSpanID != parent.SpanID.String() {
					t.Errorf("%s parent = %s, want %s", name, si.ParentSpanID, parent.SpanID)
				}
				return
			}
		}
		t.Errorf("no %s span recorded", name)
	}
	check(srcObs, "gridftp.retr")
	check(dstObs, "gridftp.stor")
}
