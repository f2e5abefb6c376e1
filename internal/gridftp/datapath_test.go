package gridftp

import (
	"bytes"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/leakcheck"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/streamstats"
)

// pathPair is the two ends of a data path with no session around them: lis
// accepts on host "lis", con connects from host "con".
type pathPair struct {
	t        *testing.T
	nw       *netsim.Network
	lis, con *dataPath
	p        channelParams
}

// newPathPair wires the two ends for DCAU A / PROT C channels, both ends
// holding the same user credential, as the two ends of a session do.
func newPathPair(t *testing.T) *pathPair {
	t.Helper()
	nw := netsim.NewNetwork()
	end := func(name string) *dataPath {
		d := &dataPath{dialFrom: []*netsim.Host{nw.Host(name)}, wait: 5 * time.Second, cache: true}
		t.Cleanup(d.reset)
		return d
	}
	pp := &pathPair{t: t, nw: nw, lis: end("lis"), con: end("con")}
	pp.p = channelParams{sec: testSecurity(t, "alice"), spec: ChannelSpec{Mode: ModeExtended}.Normalize()}
	addrs, err := pp.lis.listen(pp.lis.dialFrom)
	if err != nil {
		t.Fatal(err)
	}
	pp.con.connectTo(addrs)
	return pp
}

// testSecurity is a data-channel security context for a fresh user under a
// fresh CA; contexts from two calls do not trust each other.
func testSecurity(t *testing.T, user string) *SecurityContext {
	t.Helper()
	ca, err := gsi.NewCA(gsi.DN("/O=Grid/OU="+user+"/CN=CA"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := ca.Issue(gsi.IssueOptions{Subject: gsi.DN("/O=Grid/OU=" + user + "/CN=" + user), Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore()
	trust.AddCA(ca.Certificate())
	return &SecurityContext{Cred: cred, Trust: trust, ExpectIdentity: cred.Identity()}
}

// open establishes n channels between the ends: con dials, lis accepts.
func (pp *pathPair) open(n int) (accepted, dialed []*dataChannel) {
	pp.t.Helper()
	errCh := make(chan error, 1)
	go func() {
		var err error
		accepted, err = pp.lis.accept(n, pp.p)
		errCh <- err
	}()
	dialed, err := pp.con.dial(n, pp.p)
	if err != nil {
		pp.t.Fatalf("dial %d: %v", n, err)
	}
	if err := <-errCh; err != nil {
		pp.t.Fatalf("accept %d: %v", n, err)
	}
	return accepted, dialed
}

func (pp *pathPair) conns() int64 { return pp.nw.LinkStats("lis", "con").Conns }

// wantClosed asserts that every channel has been closed, by this end or by
// its peer (which reads as EOF here).
func wantClosed(t *testing.T, what string, chans []*dataChannel) {
	t.Helper()
	for i, ch := range chans {
		ch.raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		_, err := ch.raw.Read(make([]byte, 1))
		var ne net.Error
		if err == nil || (errors.As(err, &ne) && ne.Timeout()) {
			t.Fatalf("%s: channel %d is still open (read: %v)", what, i, err)
		}
	}
}

// wantOpen asserts that a byte written into each of chans arrives at one of
// peers, their other ends in any order.
func wantOpen(t *testing.T, what string, chans, peers []*dataChannel) {
	t.Helper()
	for i, ch := range chans {
		if _, err := ch.sec.Write([]byte{byte(i)}); err != nil {
			t.Fatalf("%s: channel %d: %v", what, i, err)
		}
	}
	seen := make(map[byte]bool)
	for i, ch := range peers {
		ch.raw.SetReadDeadline(time.Now().Add(2 * time.Second))
		var b [1]byte
		if _, err := io.ReadFull(ch.sec, b[:]); err != nil {
			t.Fatalf("%s: peer channel %d: %v", what, i, err)
		}
		ch.raw.SetReadDeadline(time.Time{})
		seen[b[0]] = true
	}
	if len(seen) != len(chans) {
		t.Fatalf("%s: %d distinct channels answered, want %d", what, len(seen), len(chans))
	}
}

func sameChannels(a, b []*dataChannel) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func wantNoNewGoroutines(t *testing.T, before int) {
	t.Helper()
	if after := leakcheck.AtMost(before); after > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines %d → %d:\n%s", before, after, buf[:runtime.Stack(buf, true)])
	}
}

// gatedConn lets a handshake start and then holds it: the first Read
// waits for the peer's first bytes — proof that the peer's side of the
// handshake is running — reports them on started, and delivers them only
// once release closes.
type gatedConn struct {
	net.Conn
	started, release chan struct{}
	gated            bool
}

func (c *gatedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if !c.gated {
		c.gated = true
		close(c.started)
		<-c.release
	}
	return n, err
}

// TestDataPathPooling drives the one data-path implementation directly, in
// both roles: what a pool is reused for, what it is dropped for, and that
// nothing stays open or running behind a transfer that is over.
func TestDataPathPooling(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, pp *pathPair)
	}{
		{"a pool of exactly n is reused", func(t *testing.T, pp *pathPair) {
			accepted, dialed := pp.open(2)
			pp.lis.retire(accepted, ModeExtended, true)
			pp.con.retire(dialed, ModeExtended, true)
			again, err := pp.lis.accept(2, pp.p)
			if err != nil || !sameChannels(again, accepted) {
				t.Fatalf("accept(2) over a pool of 2 returned %v, %v; want the pooled channels", again, err)
			}
			redialed, err := pp.con.dial(2, pp.p)
			if err != nil || !sameChannels(redialed, dialed) {
				t.Fatalf("dial(2) over a pool of 2 returned %v, %v; want the pooled channels", redialed, err)
			}
			if got := pp.conns(); got != 2 {
				t.Fatalf("%d connections made, want 2", got)
			}
			wantOpen(t, "reused pool", redialed, again)
		}},
		{"a pool of another size is closed and replaced", func(t *testing.T, pp *pathPair) {
			accepted, dialed := pp.open(2)
			pp.lis.retire(accepted, ModeExtended, true)
			pp.con.retire(dialed, ModeExtended, true)
			accepted3, dialed3 := pp.open(3)
			if got := pp.conns(); got != 2+3 {
				t.Fatalf("%d connections made, want 2 + 3", got)
			}
			wantClosed(t, "outgrown accepted pool", accepted)
			wantClosed(t, "outgrown dialed pool", dialed)
			wantOpen(t, "replacement channels", dialed3, accepted3)
		}},
		{"a sender that opens fewer channels than were pooled leaves the rest closed", func(t *testing.T, pp *pathPair) {
			accepted, dialed := pp.open(4)
			pp.lis.retire(accepted, ModeExtended, true)
			rcv, err := pp.lis.beginReceive(pp.p, "", "STOR")
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2; i++ {
				if conn, err := rcv.accept(nil); err != nil || conn != accepted[i].sec {
					t.Fatalf("accept %d returned %v, %v; want pooled channel %d", i, conn, err, i)
				}
			}
			rcv.finish(nil)
			if !sameChannels(pp.lis.pooledAccepted, accepted[:2]) {
				t.Fatalf("pool holds %d channels after the receive, want the 2 that were used", len(pp.lis.pooledAccepted))
			}
			wantClosed(t, "pooled channels the sender declined", accepted[2:])
			// On the far end, two channels still carry bytes and two read EOF.
			for _, ch := range accepted[:2] {
				if _, err := ch.sec.Write([]byte{1}); err != nil {
					t.Fatalf("pooled channel the sender used: %v", err)
				}
			}
			open := 0
			for _, ch := range dialed {
				ch.raw.SetReadDeadline(time.Now().Add(2 * time.Second))
				n, err := ch.raw.Read(make([]byte, 1))
				if n == 0 && err != io.EOF {
					t.Fatalf("far end of a pooled channel: %v", err)
				}
				open += n
			}
			if open != 2 {
				t.Fatalf("%d of the sender's 4 channels are still open, want 2", open)
			}
			if got := pp.conns(); got != 4 {
				t.Fatalf("%d connections made, want 4", got)
			}
		}},
		{"a handshake finishing after finish is closed", func(t *testing.T, pp *pathPair) {
			before := runtime.NumGoroutine()
			rcv, err := pp.lis.beginReceive(pp.p, "", "STOR")
			if err != nil {
				t.Fatal(err)
			}
			stop := make(chan struct{})
			acceptErr := make(chan error, 1)
			go func() {
				_, err := rcv.accept(stop)
				acceptErr <- err
			}()
			// The sender connects, and stalls in the middle of its handshake
			// until the receive is over.
			raw, err := pp.con.dialFrom[0].Dial(pp.con.targets[0])
			if err != nil {
				t.Fatal(err)
			}
			gate := &gatedConn{Conn: raw, started: make(chan struct{}), release: make(chan struct{})}
			type secured struct {
				ch  *dataChannel
				err error
			}
			lateCh := make(chan secured, 1)
			go func() {
				ch, err := secure(gate, pp.p, false)
				lateCh <- secured{ch, err}
			}()
			<-gate.started
			close(stop)
			if err := <-acceptErr; err == nil {
				t.Fatal("accept returned a channel whose handshake had not finished")
			}
			rcv.finish(nil)
			close(gate.release)
			late := <-lateCh
			if late.err != nil {
				t.Fatalf("late handshake: %v", late.err)
			}
			wantClosed(t, "channel secured after finish", []*dataChannel{late.ch})
			if pp.lis.pooledAccepted != nil {
				t.Fatal("the late channel was pooled")
			}
			raw.Close()
			wantNoNewGoroutines(t, before)
		}},
		{"a failed handshake among n closes the n-1 that succeeded", func(t *testing.T, pp *pathPair) {
			before := runtime.NumGoroutine()
			acceptErr := make(chan error, 1)
			go func() {
				_, err := pp.lis.accept(3, pp.p)
				acceptErr <- err
			}()
			good, err := pp.con.dial(2, pp.p)
			if err != nil {
				t.Fatal(err)
			}
			stranger := channelParams{sec: testSecurity(t, "mallory"), spec: pp.p.spec}
			raw, err := pp.con.dialFrom[0].Dial(pp.con.targets[0])
			if err != nil {
				t.Fatal(err)
			}
			if _, err := secure(raw, stranger, false); err == nil {
				t.Fatal("handshake between ends that do not trust each other succeeded")
			}
			if err := <-acceptErr; err == nil {
				t.Fatal("accept(3) succeeded with one handshake failed")
			}
			wantClosed(t, "channels accepted beside the failed one", good)
			closeChannels(good)

			// The connecting end: the second of two targets refuses.
			pp.con.targets = append(pp.con.targets, "lis:9")
			var accepted []*dataChannel
			go func() {
				var err error
				accepted, err = pp.lis.accept(1, pp.p)
				acceptErr <- err
			}()
			if _, err := pp.con.dial(2, pp.p); err == nil {
				t.Fatal("dial(2) succeeded with one target refusing")
			}
			if err := <-acceptErr; err != nil {
				t.Fatal(err)
			}
			wantClosed(t, "channel dialed beside the refused one", accepted)
			closeChannels(accepted)
			wantNoNewGoroutines(t, before)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.run(t, newPathPair(t)) })
	}
}

// TestTransformingLayersHideFastPaths: TLS and the PROT S integrity frames
// transform the byte stream, so they must have no direct path even over a
// netsim conn, which has one, and must swallow io.ReaderFrom and io.WriterTo
// — a forwarded call would put untransformed bytes on the wire. A TCP socket
// has no direct path either: its ReadFrom and WriteTo copy through a buffer.
func TestTransformingLayersHideFastPaths(t *testing.T) {
	a, b := simPipe(t, netsim.NewNetwork())
	defer a.Close()
	defer b.Close()
	if direct(a) == nil {
		t.Fatal("a netsim conn has no direct path")
	}
	for _, tc := range []struct {
		name string
		wrap func(net.Conn) net.Conn
	}{
		{"tls", func(conn net.Conn) net.Conn { return tls.Client(conn, &tls.Config{}) }},
		{"integrity", func(conn net.Conn) net.Conn { return newIntegrityConn(conn, keyAB, keyBA) }},
	} {
		layer := tc.wrap(a)
		if direct(layer) != nil {
			t.Errorf("%s has a direct path past the transform", tc.name)
		}
		if _, ok := layer.(io.ReaderFrom); ok {
			t.Errorf("%s leaks io.ReaderFrom past the transform", tc.name)
		}
		if _, ok := layer.(io.WriterTo); ok {
			t.Errorf("%s leaks io.WriterTo past the transform", tc.name)
		}
	}
	from, to, err := tcpPair()
	if err != nil {
		t.Fatal(err)
	}
	defer from.Close()
	defer to.Close()
	if _, ok := from.(*net.TCPConn); !ok || direct(from) != nil {
		t.Errorf("a loopback %T has a direct path", from)
	}
}

// TestPassiveDownloadParallel is the download a stock FTP client would
// drive: PASV, then RETR, the client end connecting both channels and the
// server accepting them. Client.Get is always active-mode, so this is the
// only test that takes the server's accept branch with more than the one
// channel MLSD uses.
func TestPassiveDownloadParallel(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	if err := c.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	payload := pattern(5*DefaultBlockSize + 1234)
	s.putFile(t, "/passive.bin", payload)
	for round := 0; round < 2; round++ { // the second round rides the pooled channels
		if err := c.ensurePassive(); err != nil {
			t.Fatal(err)
		}
		if err := c.ctrl.Cmd("RETR", "/passive.bin"); err != nil {
			t.Fatal(err)
		}
		chans, err := c.data.dial(2, c.channelParams())
		if err != nil {
			t.Fatal(err)
		}
		dst := dsi.NewBufferFile(nil)
		next := 0
		res := recvModeE(func(stop <-chan struct{}) (net.Conn, error) {
			if next == len(chans) {
				<-stop // the receive is over once both streams have sent EOD
				return nil, errors.New("transfer concluded")
			}
			next++
			return chans[next-1].sec, nil
		}, dst, nil, c.spec.BlockSize, c.spec.Parallelism, nil, nil)
		if res.Err != nil {
			t.Fatalf("round %d: %v", round, res.Err)
		}
		if r, err := c.finalReply(nil); err != nil || r.Err() != nil {
			t.Fatalf("round %d: final reply %v, %v", round, r, err)
		}
		if !bytes.Equal(dst.Bytes(), payload) {
			t.Fatalf("round %d: downloaded %d bytes differ from the %d stored", round, len(dst.Bytes()), len(payload))
		}
		c.data.retire(chans, c.spec.Mode, true)
	}
	if got := nw.LinkStats("laptop", "siteA").Conns; got != 1+2 {
		t.Fatalf("%d connections laptop↔siteA, want the control channel and 2 data channels", got)
	}
}

// TestProtectedReceiveReportsWireCounters: the receiving end of a PROT P
// transfer hands stream telemetry the raw conn as its wire-counter source —
// the TLS conn the transfer reads from has no RTT or retransmit counters — so
// the receiver's streams report an RTT like the sender's do. Its streams
// count the payload that landed, no header or TLS byte: they sum to the put.
func TestProtectedReceiveReportsWireCounters(t *testing.T) {
	nw := netsim.NewNetwork()
	reg := streamstats.New(streamstats.Options{Obs: obs.Nop(), Interval: 5 * time.Millisecond})
	defer reg.Start()()
	s := newSite(t, nw, "siteA", func(cfg *ServerConfig) { cfg.Streams = reg })
	nw.SetLink("laptop", "siteA", netsim.LinkParams{Bandwidth: 20e6, RTT: 20 * time.Millisecond, StreamWindow: 1 << 20})
	c := s.connect(t, nw.Host("laptop"), true)
	if err := c.SetProt(ProtPrivate); err != nil {
		t.Fatal(err)
	}
	setup(t, c, SessionSetup{Task: "wire"})
	if _, err := c.Put("/up.bin", dsi.NewBufferFile(pattern(2<<20))); err != nil { // ≈ 100 ms on the wire
		t.Fatal(err)
	}
	health := reg.Health()
	if len(health) != 1 || health[0].Label != "wire" || len(health[0].Streams) == 0 {
		t.Fatalf("the receiving server's stream table is %+v, want the one transfer labelled wire", health)
	}
	if rtt := health[0].Streams[0].RTTMillis; rtt <= 0 {
		t.Fatalf("the receiving server reports RTT %v ms for its PROT P stream, want it positive (the link's 20 ms)", rtt)
	}
	var landed int64
	for _, sh := range health[0].Streams {
		landed += sh.Bytes
	}
	if landed != 2<<20 {
		t.Fatalf("the receiving server's streams count %d bytes, want the %d put", landed, 2<<20)
	}
}

// TestPutFeedsTelemetry: the client's uploads show up in its stream health
// table (and under the stall watchdog) and in its byte counter, both counting
// exactly the payload over PROT P, whose TLS conn the blocks go through; so
// does a download, in the health table.
func TestPutFeedsTelemetry(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	o := obs.Nop()
	reg := streamstats.New(streamstats.Options{Obs: o})
	proxy, err := gsi.NewProxy(s.user, gsi.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialWithOptions(nw.Host("laptop"), s.addr, proxy, s.trust, DialOptions{Obs: o, Streams: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Delegate(time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.SetProt(ProtPrivate); err != nil {
		t.Fatal(err)
	}
	sizes := []int{30000, 50000}
	for i, n := range sizes {
		if _, err := c.Put(fmt.Sprintf("/m%d.bin", i), dsi.NewBufferFile(pattern(n))); err != nil {
			t.Fatal(err)
		}
	}
	var puts int
	var streamed int64
	for _, th := range reg.Health() {
		if th.Verb != "put" || !th.Done || th.Error != "" {
			t.Fatalf("unexpected transfer in the health table: %+v", th)
		}
		puts++
		for _, sh := range th.Streams {
			streamed += sh.Bytes
		}
	}
	if puts != len(sizes) {
		t.Fatalf("health table shows %d put transfers, want %d", puts, len(sizes))
	}
	if streamed != 80000 {
		t.Fatalf("streams counted %d bytes, want the 80000 payload bytes", streamed)
	}
	if got := o.Registry().Counter("gridftp.client.bytes_sent").Value(); got != 80000 {
		t.Fatalf("gridftp.client.bytes_sent = %d, want 80000", got)
	}

	// A download is told to the client's record too, by the receive loop.
	if _, err := c.Get("/m1.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatal(err)
	}
	var got int64
	for _, th := range reg.Health() {
		if th.Verb == "get" {
			for _, sh := range th.Streams {
				got += sh.Bytes
			}
		}
	}
	if got != 50000 {
		t.Fatalf("the get's streams counted %d bytes, want the 50000 downloaded", got)
	}
}
