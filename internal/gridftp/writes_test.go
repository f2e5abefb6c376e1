package gridftp

import (
	"bytes"
	"crypto/tls"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
)

// What the network charges for a small write — a syscall, a TLS record, a
// segment, on netsim's shaped links a timer wake-up — it charges per write,
// so the number of writes a flight of replies costs is the server's to keep
// small. These tests pin that number, not a time: a transfer's closing
// markers and its completion reply are one write, and so is a tick's set.

// ctrlWrites is the server's end of a control connection that records every
// Write made on it, as the transport sees them.
type ctrlWrites struct {
	net.Conn
	mu     sync.Mutex
	writes []string
}

func (c *ctrlWrites) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, string(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

// since returns the writes made after the first n, and how many there are now.
func (c *ctrlWrites) since(n int) ([]string, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.writes[n:]...), len(c.writes)
}

// countedLite serves one GridFTP-Lite session of s — cleartext, so a write's
// bytes are its replies — on a connection whose server end counts. The client
// runs on "laptop" and its control connection comes from "console": cutting
// laptop's link cuts the data channels and leaves the control channel up.
func countedLite(t *testing.T, s *site, nw *netsim.Network, streams int) (*Client, *ctrlWrites) {
	t.Helper()
	clientEnd, w := countedLiteConn(t, s, nw)
	c, err := DialLite(nw.Host("laptop"), clientEnd)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if err := c.SetParallelism(streams); err != nil {
		t.Fatal(err)
	}
	return c, w
}

// countedLiteConn is countedLite for a test that speaks the protocol itself.
func countedLiteConn(t *testing.T, s *site, nw *netsim.Network) (net.Conn, *ctrlWrites) {
	t.Helper()
	l, err := s.host.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	clientEnd, err := nw.Host("console").Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	serverEnd, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	w := &ctrlWrites{Conn: serverEnd}
	go s.server.ServeLite(w, "alice")
	return clientEnd, w
}

// markersIn splits one write into its replies and returns the perf markers
// among them, the number of restart markers, and the final reply's code (zero
// if the write holds none). It fails the test if the write does not end on a
// reply boundary: nothing is ever half-written.
func markersIn(t *testing.T, write string) (perf []PerfMarker, restart, final int) {
	t.Helper()
	rc := ftp.NewConn(&chunks{pieces: [][]byte{[]byte(write)}})
	for {
		r, err := rc.ReadReply()
		if err != nil {
			if !strings.HasSuffix(write, "\r\n") {
				t.Errorf("write does not end a reply: %q", write)
			}
			return perf, restart, final
		}
		switch {
		case final != 0:
			t.Errorf("reply %v behind the final reply in one write", r)
		case r.Code == ftp.CodeRestartMarker:
			if len(perf) > 0 {
				t.Error("restart marker behind a perf marker")
			}
			restart++
		case r.Code == CodePerfMarker:
			m, ok := ParsePerfMarker(r)
			if !ok {
				t.Errorf("unparseable marker %v", r)
			}
			perf = append(perf, m)
		case r.Code >= 200:
			final = r.Code
		}
	}
}

// closingWrite checks that the last of writes is a transfer's whole closing
// flight: restart markers as given, one perf marker per stripe in stripe
// order with end totals that sum to size, then code.
func closingWrite(t *testing.T, writes []string, streams, restart, code int, size int64) {
	t.Helper()
	if len(writes) == 0 {
		t.Fatal("no control writes")
	}
	perf, gotRestart, final := markersIn(t, writes[len(writes)-1])
	if final != code {
		t.Fatalf("last write ends in %d, want %d: %q", final, code, writes[len(writes)-1])
	}
	if len(perf) != streams || gotRestart != restart {
		t.Fatalf("the write of the %d carries %d perf and %d restart markers, want %d and %d (%d writes in all)",
			code, len(perf), gotRestart, streams, restart, len(writes))
	}
	var sum int64
	for i, m := range perf {
		if m.Stripe != i || m.TotalStripes != streams {
			t.Errorf("closing marker %d is stripe %d of %d", i, m.Stripe, m.TotalStripes)
		}
		if m.Timestamp != perf[0].Timestamp {
			t.Errorf("closing markers carry different timestamps: one set is one sample")
		}
		sum += m.StripeBytes
	}
	if size >= 0 && sum != size {
		t.Errorf("closing markers sum to %d bytes, want %d", sum, size)
	}
}

// TestClosingFlightIsOneWrite: after the last data byte of a 16-stream GET
// the server writes its control channel once — sixteen 112s, then the 226 —
// and after a 4-stream PUT once: the 111, four 112s, the 226. (Seventeen and
// six writes while every reply was its own.)
func TestClosingFlightIsOneWrite(t *testing.T) {
	nw := netsim.NewNetwork()
	nw.SetLink("laptop", "siteA", refWAN)
	s := newSite(t, nw, "siteA") // MarkerInterval 50 ms
	payload := pattern(32 * DefaultBlockSize)
	s.putFile(t, "/get.bin", payload)

	t.Run("GET 16 streams", func(t *testing.T) {
		c, w := countedLite(t, s, nw, 16)
		_, before := w.since(0)
		if _, err := c.Get("/get.bin", dsi.NewBufferFile(nil)); err != nil {
			t.Fatal(err)
		}
		writes, _ := w.since(before)
		closingWrite(t, writes, 16, 0, ftp.CodeClosingData, int64(len(payload)))
	})
	t.Run("PUT 4 streams", func(t *testing.T) {
		c, w := countedLite(t, s, nw, 4)
		_, before := w.since(0)
		if _, err := c.Put("/put.bin", dsi.NewBufferFile(payload)); err != nil {
			t.Fatal(err)
		}
		writes, _ := w.since(before)
		closingWrite(t, writes, 4, 1, ftp.CodeClosingData, int64(len(payload)))
	})
}

// TestClosingFlightIsOneRecord: the same count on a GSI session, where a
// write is a TLS record. The closing set of sixteen streams is under 3 KB and
// the session's records may be that large by then (crypto/tls grows them from
// one segment's worth as a connection sends more).
func TestClosingFlightIsOneRecord(t *testing.T) {
	nw := netsim.NewNetwork()
	nw.SetLink("laptop", "siteA", refWAN)
	s := newSite(t, nw, "siteA")
	payload := pattern(32 * DefaultBlockSize)
	s.putFile(t, "/get.bin", payload)

	// The site's listener, with every accepted control connection counted.
	l, err := s.host.Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	conns := make(chan *ctrlWrites, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		w := &ctrlWrites{Conn: conn}
		conns <- w
		s.server.serveSession(w)
	}()
	s.addr = l.Addr().String()
	c := s.connect(t, nw.Host("laptop"), true)
	if err := c.SetParallelism(16); err != nil {
		t.Fatal(err)
	}
	var markers int
	c.OnPerf(func(PerfMarker) { markers++ })
	w := <-conns

	// A first transfer so that the one measured starts with everything owed
	// settled and its channels pooled: its control writes are the 150, the
	// ticks and the closing flight.
	if _, err := c.Get("/get.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatal(err)
	}
	_, before := w.since(0)
	markers = 0
	if _, err := c.Get("/get.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatal(err)
	}
	records, _ := w.since(before)
	// Every record but the 150's and the closing one is a tick's, and a tick
	// that wrote carried at least one marker; the closing one carried sixteen.
	if ticks := len(records) - 2; ticks < 0 || markers < 16+ticks || markers > 16+16*ticks {
		t.Errorf("%d records for a 150, the ticks and the closing flight, with %d markers read", len(records), markers)
	}
	if last := len(records[len(records)-1]); last < 16*120 {
		t.Errorf("the last record is %d bytes: not sixteen markers and a 226", last)
	}
}

// TestTickIsOneWrite: a slow 4-stream GET whose every stream moves between
// ticks writes one set per tick, not one reply per stream that moved.
func TestTickIsOneWrite(t *testing.T) {
	nw := netsim.NewNetwork()
	// 8 MB/s: 4 MiB takes half a second, ten ticks of 50 ms.
	nw.SetLink("laptop", "siteA", netsim.LinkParams{Bandwidth: 8e6, RTT: 10 * time.Millisecond})
	s := newSite(t, nw, "siteA")
	payload := pattern(4 << 20)
	s.putFile(t, "/slow.bin", payload)
	c, w := countedLite(t, s, nw, 4)
	if err := c.SetBlockSize(64 << 10); err != nil {
		t.Fatal(err)
	}
	_, before := w.since(0)
	start := time.Now()
	if _, err := c.Get("/slow.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	writes, _ := w.since(before)
	closingWrite(t, writes, 4, 0, ftp.CodeClosingData, int64(len(payload)))

	var ticks, full int
	for _, write := range writes[:len(writes)-1] {
		perf, _, final := markersIn(t, write)
		if final != 0 || len(perf) == 0 {
			continue // the OPTS reply, the PORT reply, the 150
		}
		ticks++
		seen := map[int]bool{}
		for _, m := range perf {
			if seen[m.Stripe] || m.Timestamp != perf[0].Timestamp {
				t.Errorf("one tick's write reports stripe %d twice, or two samples: %v", m.Stripe, perf)
			}
			seen[m.Stripe] = true
		}
		if len(perf) == 4 {
			full++
		}
	}
	if limit := int(elapsed/(50*time.Millisecond)) + 1; ticks > limit {
		t.Errorf("%d marker writes in %v: more than one per 50 ms tick", ticks, elapsed)
	}
	if full == 0 {
		t.Errorf("no tick of %d carried all four streams' markers in one write", ticks)
	}
}

// failingReads is a storage whose files fail ReadAt past a byte offset.
type failingReads struct {
	dsi.Storage
	after int64
}

func (s failingReads) Open(user, p string) (dsi.File, error) {
	f, err := s.Storage.Open(user, p)
	if err != nil {
		return nil, err
	}
	return failingFile{File: f, after: s.after}, nil
}

type failingFile struct {
	dsi.File
	after int64
}

func (f failingFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= f.after {
		return 0, errors.New("injected read fault")
	}
	return f.File.ReadAt(p, off)
}

// TestFailedTransferStillDeliversItsClosingFlight: a transfer that dies half
// way — the storage fails a read, the client closes its data connections and
// sends ABOR, the link is cut under the data channels — answers 426 in one write
// with the markers framed before it, leaves nothing unwritten (the session
// answers the next command in a write of its own), and stays in step.
func TestFailedTransferStillDeliversItsClosingFlight(t *testing.T) {
	const streams = 4
	payload := pattern(8 << 20)
	world := func(t *testing.T, mut ...func(*ServerConfig)) (*netsim.Network, *site) {
		nw := netsim.NewNetwork()
		nw.SetLink("laptop", "siteA", netsim.LinkParams{Bandwidth: 16e6, RTT: 10 * time.Millisecond})
		s := newSite(t, nw, "siteA", mut...)
		s.putFile(t, "/big.bin", payload)
		return nw, s
	}
	// aborted checks the failed GET's writes and that the session lives on.
	aborted := func(t *testing.T, c *Client, w *ctrlWrites, before int, err error) {
		t.Helper()
		var re *ftp.ReplyError
		if !errors.As(err, &re) || re.Reply.Code != ftp.CodeTransferAborted {
			t.Fatalf("GET failed with %v, want the server's 426", err)
		}
		writes, n := w.since(before)
		perf, _, final := markersIn(t, writes[len(writes)-1])
		if final != ftp.CodeTransferAborted {
			t.Fatalf("last write ends in %d, want 426: %q", final, writes[len(writes)-1])
		}
		if len(perf) == 0 {
			t.Errorf("the 426 left alone: the closing markers of %d streams that had moved are not in its write", streams)
		}
		if _, err := c.cmdExpect("ABOR", "", ftp.CodeClosingData); err != nil {
			t.Fatalf("ABOR behind the failed transfer: %v", err)
		}
		if abor, _ := w.since(n); len(abor) != 1 || !strings.HasPrefix(abor[0], "226 ") {
			t.Errorf("ABOR answered by %q, want one write holding its 226", abor)
		}
	}

	t.Run("dsi read error", func(t *testing.T) {
		nw, s := world(t, func(cfg *ServerConfig) {
			cfg.Storage = failingReads{Storage: cfg.Storage, after: 4 << 20}
		})
		c, w := countedLite(t, s, nw, streams)
		_, before := w.since(0)
		_, err := c.Get("/big.bin", dsi.NewBufferFile(nil))
		aborted(t, c, w, before, err)
	})
	t.Run("ABOR", func(t *testing.T) {
		// An aborting client, by hand: it takes four data connections, lets
		// the transfer run, closes them and writes ABOR.
		nw, s := world(t)
		clientEnd, w := countedLiteConn(t, s, nw)
		t.Cleanup(func() { clientEnd.Close() })
		ctrl := ftp.NewConn(clientEnd)
		l, err := nw.Host("laptop").Listen(0)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		expect := func(code int) {
			t.Helper()
			if _, err := ctrl.Expect(code); err != nil {
				t.Fatal(err)
			}
		}
		expect(ftp.CodeReadyForNewUser)
		ctrl.WriteCommand(ftp.Command{Name: "MODE", Params: "E"})
		ctrl.WriteCommand(ftp.Command{Name: "OPTS", Params: "RETR Parallelism=4,4,4;"})
		ctrl.WriteCommand(ftp.Command{Name: "PORT", Params: l.Addr().String()})
		expect(ftp.CodeOK)
		expect(ftp.CodeOK)
		expect(ftp.CodeOK)
		_, before := w.since(0)
		ctrl.WriteCommand(ftp.Command{Name: "RETR", Params: "/big.bin"})
		var data []net.Conn
		for len(data) < streams {
			conn, err := l.Accept()
			if err != nil {
				t.Fatal(err)
			}
			data = append(data, conn)
			go io.Copy(io.Discard, conn)
		}
		time.Sleep(200 * time.Millisecond) // four ticks' worth of an 8 MiB, half-second transfer
		for _, conn := range data {
			conn.Close()
		}
		ctrl.WriteCommand(ftp.Command{Name: "ABOR"})
		var markers int
		r, err := ctrl.ReadFinalReply(func(r ftp.Reply) {
			if r.Code == CodePerfMarker {
				markers++
			}
		})
		if err != nil || r.Code != ftp.CodeTransferAborted || markers < streams {
			t.Fatalf("aborted RETR: reply %v, error %v, %d markers read", r, err, markers)
		}
		expect(ftp.CodeClosingData) // ABOR's own: no transfer in progress
		writes, _ := w.since(before)
		if len(writes) < 2 {
			t.Fatalf("%d control writes for a 150, a 426 and a 226", len(writes))
		}
		if perf, _, final := markersIn(t, writes[len(writes)-2]); final != ftp.CodeTransferAborted || len(perf) != streams {
			t.Errorf("the 426's write carries %d markers and ends in %d, want the closing %d and 426", len(perf), final, streams)
		}
		if abor := writes[len(writes)-1]; !strings.HasPrefix(abor, "226 ") {
			t.Errorf("ABOR answered by %q, want a write of its own holding its 226", abor)
		}
	})
	t.Run("cut link", func(t *testing.T) {
		nw, s := world(t)
		c, w := countedLite(t, s, nw, streams)
		_, before := w.since(0)
		cut := time.AfterFunc(200*time.Millisecond, func() { nw.CutLink("laptop", "siteA") })
		defer cut.Stop()
		_, err := c.Get("/big.bin", dsi.NewBufferFile(nil))
		aborted(t, c, w, before, err)
	})
}

// TestPortAndRetrInOneSegment: a client writes PORT and RETR in one TLS
// record and does not accept the data connection until it has read PORT's
// 200. That works because the server writes every reply when it is framed.
// The rule that would save more writes — hold a final reply while the next
// command line is already buffered, as SMTP and Redis pipelining do — was
// measured for ISSUE 23 (+0 on wan_stream_p16 and wan_fresh_p16 on top of
// the closing flight) and deadlocks exactly here unless the held 200 is
// flushed before the data path is waited for: this test is what a future
// change of that kind has to keep passing.
func TestPortAndRetrInOneSegment(t *testing.T) {
	nw := netsim.NewNetwork()
	nw.SetLink("laptop", "siteA", netsim.LinkParams{RTT: 2 * time.Millisecond})
	s := newSite(t, nw, "siteA")
	payload := pattern(300_000)
	s.putFile(t, "/f.bin", payload)

	raw, err := nw.Host("laptop").Dial(s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	raw.SetDeadline(time.Now().Add(10 * time.Second)) // a deadlock fails here, not at the suite's timeout
	ctrl := ftp.NewConn(raw)
	expect := func(code int) {
		t.Helper()
		if r, err := ctrl.Expect(code); err != nil {
			t.Fatalf("want %d: %v %v", code, r, err)
		}
	}
	expect(ftp.CodeReadyForNewUser)
	ctrl.WriteCommand(ftp.Command{Name: "AUTH", Params: "TLS"})
	expect(ftp.CodeAuthOK)
	tc := tls.Client(raw, gsi.ClientTLSConfig(s.user, s.trust))
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	ctrl = ftp.NewConn(tc)
	expect(ftp.CodeUserLoggedIn)
	ctrl.WriteCommand(ftp.Command{Name: "DCAU", Params: "N"}) // a cleartext data connection, stream mode
	expect(ftp.CodeOK)

	l, err := nw.Host("laptop").Listen(0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := tc.Write([]byte("PORT " + l.Addr().String() + "\r\nRETR /f.bin\r\n")); err != nil { // one record
		t.Fatal(err)
	}
	expect(ftp.CodeOK) // PORT's, read before the listener is looked at
	data, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	data.SetDeadline(time.Now().Add(10 * time.Second))
	got, err := io.ReadAll(data)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("read %d bytes of %d over the data connection: %v", len(got), len(payload), err)
	}
	expect(ftp.CodeClosingData) // behind its 150
}
