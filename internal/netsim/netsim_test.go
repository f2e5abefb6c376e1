package netsim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

func TestListenDialRoundTrip(t *testing.T) {
	nw := NewNetwork()
	l, err := nw.Listen("server", 2811)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	done := make(chan error, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		if _, err := io.ReadFull(c, buf); err != nil {
			done <- err
			return
		}
		_, err = c.Write(bytes.ToUpper(buf))
		done <- err
	}()

	c, err := nw.Dial("client", "server:2811")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "HELLO" {
		t.Fatalf("got %q, want HELLO", buf)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestDialErrors(t *testing.T) {
	nw := NewNetwork()
	nw.Host("server") // exists but not listening
	if _, err := nw.Dial("client", "server:99"); err == nil {
		t.Fatal("dial to non-listening port should fail")
	}
	if _, err := nw.Dial("client", "ghost:99"); err == nil {
		t.Fatal("dial to unknown host should fail")
	}
	if _, err := nw.Dial("client", "bogus-address"); err == nil {
		t.Fatal("dial to malformed address should fail")
	}
}

func TestListenPortReuse(t *testing.T) {
	nw := NewNetwork()
	l, err := nw.Listen("h", 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Listen("h", 100); err == nil {
		t.Fatal("double listen on same port should fail")
	}
	l.Close()
	l2, err := nw.Listen("h", 100)
	if err != nil {
		t.Fatalf("listen after close should succeed: %v", err)
	}
	l2.Close()
}

func TestAutoAssignedPortsDistinct(t *testing.T) {
	nw := NewNetwork()
	seen := map[string]bool{}
	for i := 0; i < 10; i++ {
		l, err := nw.Listen("h", 0)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		a := l.Addr().String()
		if seen[a] {
			t.Fatalf("duplicate auto port %s", a)
		}
		seen[a] = true
	}
}

// TestEphemeralPortsRunOut: port 0 takes the ephemeral range's ports, each
// once while it is held, and fails when none is left; a port given back is
// the next one taken.
func TestEphemeralPortsRunOut(t *testing.T) {
	nw := NewNetwork()
	var held []net.Listener
	defer func() {
		for _, l := range held {
			l.Close()
		}
	}()
	for {
		l, err := nw.Listen("h", 0)
		if err != nil {
			if !errors.Is(err, errAddrInUse) {
				t.Fatalf("listen with the range taken: %v, want address in use", err)
			}
			break
		}
		held = append(held, l)
	}
	if n := len(held); n != lastEphemeral-firstEphemeral+1 {
		t.Fatalf("%d ephemeral ports, want %d", n, lastEphemeral-firstEphemeral+1)
	}
	given := held[100].Addr().String()
	held[100].Close()
	l, err := nw.Listen("h", 0)
	if err != nil || l.Addr().String() != given {
		t.Fatalf("listen after %s was given back: %v, %v", given, l, err)
	}
	held[100] = l
}

func TestHalfClose(t *testing.T) {
	nw := NewNetwork()
	l, _ := nw.Listen("s", 1)
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		io.Copy(c, c) // echo until EOF
		c.(*Conn).CloseWrite()
	}()
	c, err := nw.Dial("c", "s:1")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 10000)
	go func() {
		c.Write(payload)
		c.(*Conn).CloseWrite()
	}()
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo mismatch: got %d bytes want %d", len(got), len(payload))
	}
}

func TestAbortFailsPeerReads(t *testing.T) {
	nw := NewNetwork()
	l, _ := nw.Listen("s", 1)
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, err := nw.Dial("c", "s:1")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	c.(*Conn).Abort()
	buf := make([]byte, 1)
	if _, err := srv.Read(buf); err == nil || err == io.EOF {
		t.Fatalf("read after abort: want hard error, got %v", err)
	}
}

func TestReadDeadline(t *testing.T) {
	nw := NewNetwork()
	l, _ := nw.Listen("s", 1)
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		defer c.Close()
		time.Sleep(time.Second)
	}()
	c, err := nw.Dial("c", "s:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 1)
	_, err = c.Read(buf)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
}

func TestDialContextCancel(t *testing.T) {
	nw := NewNetwork()
	nw.SetDefaultLink(LinkParams{RTT: 5 * time.Second})
	nw.Listen("s", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := nw.Host("c").DialContext(ctx, "s:1")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context deadline, got %v", err)
	}
}

// transferRate sends n bytes across a link with the given params and
// returns the measured bytes/sec.
func transferRate(t *testing.T, p LinkParams, n int, streams int) float64 {
	t.Helper()
	nw := NewNetwork()
	nw.SetLink("a", "b", p)
	l, err := nw.Listen("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	var wg sync.WaitGroup
	var recvMu sync.Mutex
	received := 0
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				m, _ := io.Copy(io.Discard, c)
				recvMu.Lock()
				received += int(m)
				recvMu.Unlock()
			}()
		}
	}()

	per := n / streams
	start := time.Now()
	var sendWg sync.WaitGroup
	for i := 0; i < streams; i++ {
		sendWg.Add(1)
		go func() {
			defer sendWg.Done()
			c, err := nw.Dial("a", "b:1")
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 32*1024)
			left := per
			for left > 0 {
				m := len(buf)
				if m > left {
					m = left
				}
				if _, err := c.Write(buf[:m]); err != nil {
					t.Error(err)
					return
				}
				left -= m
			}
			c.(*Conn).CloseWrite()
			// Wait for receiver to drain before closing.
			io.ReadAll(c)
			c.Close()
		}()
	}
	sendWg.Wait()
	wg.Wait()
	elapsed := time.Since(start)
	if received != per*streams {
		t.Fatalf("received %d bytes, want %d", received, per*streams)
	}
	return float64(received) / elapsed.Seconds()
}

// closedFormTime is the model's wall time for moving n bytes over p on the
// given number of streams: the dial's round trip, the bytes at
// min(streams × per-stream cap, Bandwidth), and the last byte's one-way
// propagation. The per-stream cap is worked out here, not read from
// StreamCap: window ÷ RTT, and under loss the Mathis bound
// MSS ÷ RTT × C ÷ √loss if that is lower.
func closedFormTime(p LinkParams, n, streams int) float64 {
	perStream := float64(p.StreamWindow) / p.RTT.Seconds()
	if p.Loss > 0 {
		perStream = math.Min(perStream, 1460/p.RTT.Seconds()*1.22/math.Sqrt(p.Loss))
	}
	rate := math.Min(float64(streams)*perStream, p.Bandwidth)
	return p.RTT.Seconds() + float64(n)/rate + p.RTT.Seconds()/2
}

// checkClosedForm moves n bytes over p and fails t unless the transfer's
// wall time lands within ±10 % of closedFormTime.
func checkClosedForm(t *testing.T, p LinkParams, n, streams int) {
	t.Helper()
	want := closedFormTime(p, n, streams)
	got := float64(n) / transferRate(t, p, n, streams)
	t.Logf("%.1f ms against the closed form's %.1f ms (%.3f)", got*1e3, want*1e3, got/want)
	if got < 0.9*want || got > 1.1*want {
		t.Errorf("took %.1f ms, want %.1f ms ± 10 %%", got*1e3, want*1e3)
	}
}

// TestWindowLimitedThroughput: a 64 KiB window over a 40 ms RTT caps a
// stream near 1.6 MB/s even though the link itself is 100 MB/s.
func TestWindowLimitedThroughput(t *testing.T) {
	p := LinkParams{Bandwidth: 100e6, RTT: 40 * time.Millisecond, StreamWindow: 64 << 10}
	checkClosedForm(t, p, 512<<10, 1)
}

// TestSharedBandwidthCap: eight streams whose windows would each fill the
// link share its 4 MB/s, neither above nor below it.
func TestSharedBandwidthCap(t *testing.T) {
	p := LinkParams{Bandwidth: 4e6, RTT: 5 * time.Millisecond, StreamWindow: 1 << 20}
	checkClosedForm(t, p, 2<<20, 8)
}

// TestMathisLossCap: under 0.1 % loss StreamCap is the Mathis bound, and a
// stream whose window is far above it moves its bytes at that bound.
func TestMathisLossCap(t *testing.T) {
	p := LinkParams{Bandwidth: 1e9, RTT: 50 * time.Millisecond, Loss: 0.001, StreamWindow: 1 << 30}
	mathis := float64(p.mss()) / p.RTT.Seconds() * mathisC / math.Sqrt(p.Loss)
	if got := p.StreamCap(); math.Abs(got-mathis) > 1 {
		t.Fatalf("StreamCap=%v want mathis=%v", got, mathis)
	}
	checkClosedForm(t, p, 512<<10, 1)
}

// TestThroughputMatchesClosedForm holds the rest of the grid of links to
// closedFormTime within ±10 %: a wider window, streams splitting a window
// limit, more streams sharing a link, and loss-limited parallel streams.
func TestThroughputMatchesClosedForm(t *testing.T) {
	for _, row := range []struct {
		name    string
		link    LinkParams
		bytes   int
		streams int
	}{
		{"256KiB window over 20ms", LinkParams{Bandwidth: 100e6, RTT: 20 * time.Millisecond, StreamWindow: 256 << 10}, 2 << 20, 1},
		{"4 streams on a 64KiB window", LinkParams{Bandwidth: 100e6, RTT: 40 * time.Millisecond, StreamWindow: 64 << 10}, 1 << 20, 4},
		{"16 streams share 8MB/s", LinkParams{Bandwidth: 8e6, RTT: 5 * time.Millisecond, StreamWindow: 1 << 20}, 2 << 20, 16},
		{"1% loss, 4 streams", LinkParams{Bandwidth: 1e9, RTT: 50 * time.Millisecond, Loss: 0.01, StreamWindow: 1 << 30}, 512 << 10, 4},
	} {
		t.Run(row.name, func(t *testing.T) {
			checkClosedForm(t, row.link, row.bytes, row.streams)
		})
	}
}

func TestParallelStreamsScaleOnWindowLimitedLink(t *testing.T) {
	p := LinkParams{Bandwidth: 100e6, RTT: 40 * time.Millisecond, StreamWindow: 64 * 1024}
	r1 := transferRate(t, p, 256*1024, 1)
	r4 := transferRate(t, p, 1024*1024, 4)
	if r4 < 2.5*r1 {
		t.Fatalf("4 streams should be >2.5x faster than 1: r1=%.0f r4=%.0f", r1, r4)
	}
}

func TestStreamCapUnshaped(t *testing.T) {
	var p LinkParams
	if !math.IsInf(p.StreamCap(), 1) {
		t.Fatal("unshaped link should have infinite stream cap")
	}
}

func TestRTTDelaysDelivery(t *testing.T) {
	nw := NewNetwork()
	nw.SetLink("a", "b", LinkParams{RTT: 60 * time.Millisecond})
	l, _ := nw.Listen("b", 1)
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		buf := make([]byte, 4)
		io.ReadFull(c, buf)
		c.Write(buf) // pong
	}()
	start := time.Now()
	c, err := nw.Dial("a", "b:1") // costs 1 RTT (handshake)
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("ping"))
	buf := make([]byte, 4)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// handshake RTT + request/response RTT = 120ms minimum
	if elapsed < 115*time.Millisecond {
		t.Fatalf("round trip took %v, want >= ~120ms", elapsed)
	}
}

func TestLoopbackUnshapedByDefault(t *testing.T) {
	nw := NewNetwork()
	nw.SetDefaultLink(LinkParams{RTT: time.Second})
	l, _ := nw.Listen("h", 1)
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		io.Copy(c, c)
	}()
	start := time.Now()
	c, err := nw.Dial("h", "h:1")
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("x"))
	buf := make([]byte, 1)
	io.ReadFull(c, buf)
	if time.Since(start) > 200*time.Millisecond {
		t.Fatal("loopback should not be shaped by the default WAN link")
	}
}

func TestConnAddrs(t *testing.T) {
	nw := NewNetwork()
	l, _ := nw.Listen("srv", 2811)
	defer l.Close()
	go l.Accept()
	c, err := nw.Dial("cli", "srv:2811")
	if err != nil {
		t.Fatal(err)
	}
	if c.RemoteAddr().String() != "srv:2811" {
		t.Fatalf("remote addr %s", c.RemoteAddr())
	}
	if host, _, _ := net.SplitHostPort(c.LocalAddr().String()); host != "cli" {
		t.Fatalf("local addr %s", c.LocalAddr())
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	nw := NewNetwork()
	l, _ := nw.Listen("s", 1)
	defer l.Close()
	go l.Accept()
	c, _ := nw.Dial("c", "s:1")
	c.Close()
	if _, err := c.Write([]byte("x")); err == nil {
		t.Fatal("write after close should fail")
	}
}
