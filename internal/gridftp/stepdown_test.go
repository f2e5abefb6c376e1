package gridftp

import (
	"io"
	"runtime"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/leakcheck"
	"gridftp.dev/instant/internal/netsim"
)

// TestDataFlowsBehindFinished: a one-stream GET of an empty file on the
// reference link, on a session with nothing owed and no channel cached. PORT
// and RETR reach the server ½; it connects 1; ClientHello out and the
// listener's flight back 1; the connector's Finished and the EOF block behind
// it arrive ½ later, the 226 with them — 3 round trips and the handshake's
// CPU. Stepping down costs none: not for PROT C, and not for PROT S, whose
// keys both ends derive. (It was one more while a key and an ack crossed.)
func TestDataFlowsBehindFinished(t *testing.T) {
	if raceEnabled {
		t.Skip("the budget is wall time; the race detector multiplies the handshake's CPU")
	}
	for _, prot := range []ProtLevel{ProtClear, ProtSafe} {
		nw := netsim.NewNetwork()
		s := newSite(t, nw, "siteA")
		s.putFile(t, "/empty", nil)
		nw.SetLink("laptop", "siteA", refWAN)
		c := s.connect(t, nw.Host("laptop"), true)
		if err := c.SetProt(prot); err != nil {
			t.Fatal(err)
		}
		best := time.Duration(0)
		for try := 0; try < 3; try++ { // the budget is about the protocol, not about a busy machine
			c.flushPools()
			start := time.Now()
			if _, err := c.Get("/empty", dsi.NewBufferFile(nil)); err != nil {
				t.Fatal(err)
			}
			if took := time.Since(start); best == 0 || took < best {
				best = took
			}
		}
		if rtts := float64(best) / float64(refWAN.RTT); rtts > 3.6 {
			t.Errorf("PROT %c: an empty GET on a fresh channel took %.2f round trips, want at most 3.6", prot, rtts)
		}
	}
}

// TestRefusedDataPeerFailsBothSessionsFast: a third-party transfer between
// servers that will not accept each other on the data channel fails well
// inside DataTimeout on both sessions and leaves nothing running. Stepping
// down no longer has an exchange in which the connector would read the
// listener's verdict: it learns of a refusal from the connection being closed
// under it, and the task from the destination's reply.
func TestRefusedDataPeerFailsBothSessionsFast(t *testing.T) {
	slowToGiveUp := func(cfg *ServerConfig) { cfg.DataTimeout = 3 * time.Second }
	type pair struct {
		srcSite  *site
		src, dst *Client
	}
	for _, tc := range []struct {
		name  string
		build func(t *testing.T) pair
	}{
		{"neither trusts the other's CA", func(t *testing.T) pair {
			nw := netsim.NewNetwork()
			a, b := newSite(t, nw, "siteA", slowToGiveUp), newSite(t, nw, "siteB", slowToGiveUp)
			return pair{a, a.connect(t, nw.Host("laptop"), true), b.connect(t, nw.Host("laptop"), true)}
		}},
		{"only the source trusts", func(t *testing.T) pair {
			// The source, which connects, completes its handshake and sends:
			// the destination's certificate chains to a CA it knows and names
			// the user it expects. The destination refuses the source's.
			nw := netsim.NewNetwork()
			a, b := newSite(t, nw, "siteA", slowToGiveUp), newSite(t, nw, "siteB", slowToGiveUp)
			a.trust.AddCA(b.ca.Certificate())
			b.user = issueAs(t, b, a.user.DN())
			return pair{a, a.connect(t, nw.Host("laptop"), true), b.connect(t, nw.Host("laptop"), true)}
		}},
		{"trusted, but another user", func(t *testing.T) pair {
			p := newTPPair(t, tpPairOptions{server: slowToGiveUp})
			p.dst.Close()
			p.dstSite.user = issueAs(t, p.dstSite, "/O=Grid/OU=siteB/CN=bob")
			return pair{p.srcSite, p.src, p.dstSite.connect(t, p.nw.Host("laptop"), true)}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build(t)
			p.srcSite.putFile(t, "/src.bin", pattern(300000))
			time.Sleep(100 * time.Millisecond) // the logins' goroutines settle
			before := runtime.NumGoroutine()
			start := time.Now()
			_, err := ThirdParty(p.src, "/src.bin", p.dst, "/dst.bin", ThirdPartyOptions{})
			if err == nil {
				t.Fatal("the transfer succeeded")
			}
			for _, c := range []*Client{p.src, p.dst} {
				if err := c.Noop(); err != nil {
					t.Fatalf("a session is out of step after the refusal: %v", err)
				}
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("both sessions took %v to be done with the refused transfer (want < 1s): %v", took, err)
			}
			if after := leakcheck.AtMost(before); after > before {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutines %d → %d across a refused data channel:\n%s", before, after, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// issueAs has the site's CA issue a user certificate for subject, mapped to
// the site's one account.
func issueAs(t *testing.T, s *site, subject gsi.DN) *gsi.Credential {
	t.Helper()
	cred, err := s.ca.Issue(gsi.IssueOptions{Subject: subject, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	s.gridmap.AddEntry(cred.DN(), "alice")
	return cred
}

// TestRefusedConnectorFindsTheChannelClosed is the one-sided refusal at the
// data path: the listener does not accept the connector's certificate, and
// the connector has no quarrel with the listener's. In TLS 1.3 the
// connector's handshake is over before the listener has judged it, so its
// dial succeeds — it has authenticated the end it would send to — and the
// refusal reaches it as the end of the connection: the listener's accept
// fails at once, and the connector reads to EOF instead of waiting.
func TestRefusedConnectorFindsTheChannelClosed(t *testing.T) {
	for _, prot := range []ProtLevel{ProtClear, ProtSafe} {
		pp := newPathPair(t)
		pp.p.spec.Prot = prot
		stranger := testSecurity(t, "mallory")
		stranger.Trust, stranger.ExpectIdentity = pp.p.sec.Trust, ""
		before := runtime.NumGoroutine()

		start := time.Now()
		acceptErr := make(chan error, 1)
		go func() {
			_, err := pp.lis.accept(1, pp.p)
			acceptErr <- err
		}()
		dialed, err := pp.con.dial(1, channelParams{sec: stranger, spec: pp.p.spec})
		if err != nil {
			t.Fatalf("PROT %c: the connector, which accepts the listener, failed: %v", prot, err)
		}
		if err := <-acceptErr; err == nil {
			t.Fatalf("PROT %c: the listener accepted a certificate from a CA it does not know", prot)
		}
		dialed[0].raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		// What the listener left on the wire is its alert, a TLS record: PROT
		// C passes it up as bytes for MODE E to choke on, PROT S refuses it.
		if _, err := io.Copy(io.Discard, dialed[0].sec); err == nil && prot == ProtSafe {
			t.Errorf("PROT S: the listener's alert passed the integrity layer")
		}
		if _, err := io.Copy(io.Discard, dialed[0].raw); err != nil {
			t.Errorf("PROT %c: the refused connector's read ends in %v, want EOF", prot, err)
		}
		if _, err := dialed[0].sec.Write(make([]byte, 1)); err == nil {
			t.Errorf("PROT %c: a write on the refused channel succeeded", prot)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("PROT %c: the refusal took %v to reach both ends", prot, took)
		}
		closeChannels(dialed)
		wantNoNewGoroutines(t, before)
	}
}
