package gridftp

import (
	"errors"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

// TestSetupIsOneRoundTrip sends all four session commands over a 50 ms
// link: together they must cost one round trip, not four, and leave the
// same state behind as the single setters do.
func TestSetupIsOneRoundTrip(t *testing.T) {
	const rtt = 50 * time.Millisecond
	nw := netsim.NewNetwork()
	s, o := obsSite(t, nw, "siteA")
	s.putFile(t, "/data.bin", pattern(64<<10))
	nw.SetLink("laptop", "siteA", netsim.LinkParams{Bandwidth: 100e6, RTT: rtt, StreamWindow: 1 << 20})
	c := s.connect(t, nw.Host("laptop"), true)

	parent := obs.NewTracer().StartSpan("task")
	start := time.Now()
	err := c.Setup(SessionSetup{
		Trace:          parent.Context(),
		MarkerInterval: 30 * time.Millisecond,
		Task:           "task-7",
		DCSC:           s.user,
	})
	if err == nil {
		err = c.Settle() // Setup leaves its replies owed
	}
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 3*rtt {
		t.Fatalf("four session commands took %v, want about one %v round trip", took, rtt)
	}
	if c.spec.MarkerInterval != 30*time.Millisecond || c.task != "task-7" {
		t.Fatalf("client state not applied: markers=%v task=%q", c.spec.MarkerInterval, c.task)
	}
	// The server took all four: its RETR span joins the caller's trace.
	if _, err := c.Get("/data.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatal(err)
	}
	joined := false
	for _, si := range o.Trace.Spans() {
		if si.Name == "gridftp.retr" && si.TraceID == parent.TraceID.String() {
			joined = true
		}
	}
	if !joined {
		t.Fatal("server RETR span did not join the trace sent by Setup")
	}
}

// TestBatchAppliesStatePerCommand: a refused command in the middle of a
// batch must not stop the replies after it from being read, must not apply
// its own state change, and must not undo its neighbours'.
func TestBatchAppliesStatePerCommand(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA", func(cfg *ServerConfig) { cfg.DisableTrace = true })
	c := s.connect(t, nw.Host("laptop"), true)

	var applied []string
	note := func(name string) func(bool) {
		return func(accepted bool) {
			if !accepted {
				name += " (declined)"
			}
			applied = append(applied, name)
		}
	}
	declined := traceCmd(obs.NewTracer().StartSpan("task").Context())
	declined.apply = note("trace")
	err := c.batch(
		declined, // optional, unknown to this server: 500 tolerated
		sessionCmd{name: "OPTS", params: "RETR Markers=40;", apply: note("markers")},
		sessionCmd{name: "OPTS", params: "RETR Markers=bogus;", apply: note("bad markers")},  // 501
		sessionCmd{name: "SITE", params: "FROBNICATE", apply: note("unknown, not optional")}, // 500
		sessionCmd{name: "SITE", params: "TASK after-the-failure", optional: true, apply: note("task")},
	)
	var re *ftp.ReplyError
	if !errors.As(err, &re) || re.Reply.Code != ftp.CodeParamSyntaxError {
		t.Fatalf("want the first failure (501), got %v", err)
	}
	want := []string{"trace (declined)", "markers", "task"}
	if len(applied) != len(want) {
		t.Fatalf("applied %v, want %v", applied, want)
	}
	for i := range want {
		if applied[i] != want[i] {
			t.Fatalf("applied %v, want %v", applied, want)
		}
	}
	// All five replies were consumed: the next command reads its own.
	if err := c.Noop(); err != nil {
		t.Fatalf("control channel out of step after a failed batch: %v", err)
	}
}
