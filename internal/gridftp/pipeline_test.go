package gridftp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/netsim"
)

func TestPutManyGetManyRoundTrip(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)

	const n = 20
	var puts []PutItem
	var payloads [][]byte
	for i := 0; i < n; i++ {
		p := pattern(1000 + i*137)
		payloads = append(payloads, p)
		puts = append(puts, PutItem{Path: fmt.Sprintf("/f%02d", i), Src: dsi.NewBufferFile(p)})
	}
	if err := c.PutMany(puts); err != nil {
		t.Fatal(err)
	}
	for i := range puts {
		if got := s.readFile(t, puts[i].Path); !bytes.Equal(got, payloads[i]) {
			t.Fatalf("file %d mismatch", i)
		}
	}

	var gets []GetItem
	var dsts []*dsi.BufferFile
	for i := 0; i < n; i++ {
		d := dsi.NewBufferFile(nil)
		dsts = append(dsts, d)
		gets = append(gets, GetItem{Path: fmt.Sprintf("/f%02d", i), Dst: d})
	}
	if err := c.GetMany(gets); err != nil {
		t.Fatal(err)
	}
	for i := range gets {
		if !bytes.Equal(dsts[i].Bytes(), payloads[i]) {
			t.Fatalf("get %d mismatch", i)
		}
	}
}

func TestGetManyMissingFileFailsCleanly(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	s.putFile(t, "/ok", pattern(100))
	err := c.GetMany([]GetItem{
		{Path: "/ok", Dst: dsi.NewBufferFile(nil)},
		{Path: "/missing", Dst: dsi.NewBufferFile(nil)},
	})
	if err == nil {
		t.Fatal("missing file in pipeline should fail")
	}
	// Session must still be usable after the failure.
	if err := c.Noop(); err != nil {
		t.Fatalf("session dead after pipelined failure: %v", err)
	}
}

// TestPipelinedFailureMidwayLeavesSessionUsable: GetMany and PutMany with
// the failing item in the middle return that item's error promptly, having
// read the replies of the commands queued behind it, so the session's next
// command gets its own reply and its next transfer is byte-exact.
func TestPipelinedFailureMidwayLeavesSessionUsable(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA", func(cfg *ServerConfig) { cfg.DataTimeout = 3 * time.Second })
	c := s.connect(t, nw.Host("laptop"), true)
	s.putFile(t, "/ok", pattern(3000))
	s.putFile(t, "/ok2", pattern(5000))
	if err := s.storage.Mkdir("alice", "/dir"); err != nil {
		t.Fatal(err)
	}
	sink := func() dsi.File { return dsi.NewBufferFile(nil) }
	for _, tc := range []struct {
		name string
		run  func() error
		want string
	}{
		{"GetMany", func() error {
			return c.GetMany([]GetItem{{"/ok", sink()}, {"/missing", sink()}, {"/ok2", sink()}, {"/ok", sink()}})
		}, "pipelined get 1 (/missing)"},
		{"PutMany", func() error {
			return c.PutMany([]PutItem{
				{"/up0", dsi.NewBufferFile(pattern(100))},
				{"/dir", dsi.NewBufferFile(pattern(200))}, // a directory: uncreatable
				{"/up2", dsi.NewBufferFile(pattern(300))},
				{"/up3", dsi.NewBufferFile(pattern(400))},
			})
		}, "pipelined put 1 (/dir)"},
	} {
		start := time.Now()
		err := tc.run()
		took := time.Since(start)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want one naming %q", tc.name, err, tc.want)
		}
		if took > time.Second {
			t.Fatalf("%s took %v to fail (want < 1s)", tc.name, took)
		}
		start = time.Now()
		if err := c.Noop(); err != nil {
			t.Fatalf("NOOP after a failed %s: %v", tc.name, err)
		}
		if took := time.Since(start); took > time.Second {
			t.Fatalf("NOOP after a failed %s took %v", tc.name, took)
		}
		got := dsi.NewBufferFile(nil)
		if _, err := c.Get("/ok2", got); err != nil || !bytes.Equal(got.Bytes(), pattern(5000)) {
			t.Fatalf("Get after a failed %s: err=%v, %d bytes", tc.name, err, len(got.Bytes()))
		}
		if _, err := c.Put("/after", dsi.NewBufferFile(pattern(7000))); err != nil {
			t.Fatalf("Put after a failed %s: %v", tc.name, err)
		}
		if !bytes.Equal(s.readFile(t, "/after"), pattern(7000)) {
			t.Fatalf("Put after a failed %s stored other bytes", tc.name)
		}
	}
}

func TestPipeliningBeatsSequentialOnHighRTT(t *testing.T) {
	nw := netsim.NewNetwork()
	nw.SetLink("laptop", "siteA", netsim.LinkParams{
		Bandwidth: 100e6, RTT: 20 * time.Millisecond, StreamWindow: 1 << 22,
	})
	s := newSite(t, nw, "siteA")
	const n = 15
	for i := 0; i < n; i++ {
		s.putFile(t, fmt.Sprintf("/f%02d", i), pattern(4096))
	}

	// Sequential: one Get at a time (still cached channels).
	cSeq := s.connect(t, nw.Host("laptop"), true)
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := cSeq.Get(fmt.Sprintf("/f%02d", i), dsi.NewBufferFile(nil)); err != nil {
			t.Fatal(err)
		}
	}
	seq := time.Since(start)

	// Pipelined.
	cPipe := s.connect(t, nw.Host("laptop"), true)
	var gets []GetItem
	for i := 0; i < n; i++ {
		gets = append(gets, GetItem{Path: fmt.Sprintf("/f%02d", i), Dst: dsi.NewBufferFile(nil)})
	}
	start = time.Now()
	if err := cPipe.GetMany(gets); err != nil {
		t.Fatal(err)
	}
	piped := time.Since(start)

	if piped >= seq {
		t.Fatalf("pipelining (%v) should beat sequential (%v) at 20ms RTT", piped, seq)
	}
	t.Logf("sequential %v, pipelined %v (%.1fx)", seq, piped, float64(seq)/float64(piped))
}
