package streamstats

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

func newTestRegistry(t *testing.T) *Registry {
	t.Helper()
	r := New(Options{Obs: obs.Nop(), Interval: time.Hour})
	t.Cleanup(r.Close)
	return r
}

// streamHealth returns stream i of the registry's only transfer.
func streamHealth(t *testing.T, r *Registry, i int) StreamHealth {
	t.Helper()
	h := r.Health()
	if len(h) != 1 || len(h[0].Streams) <= i {
		t.Fatalf("health table %+v has no stream %d of a single transfer", h, i)
	}
	return h[0].Streams[i]
}

// fullCapConn is a net.Conn with both fast-path capabilities, standing in
// for a real TCP socket or a netsim conn.
type fullCapConn struct {
	net.Conn
	readFromCalls     int
	writeBuffersCalls int
}

func (c *fullCapConn) ReadFrom(r io.Reader) (int64, error) {
	c.readFromCalls++
	return io.Copy(c.Conn, r)
}

func (c *fullCapConn) WriteBuffers(bufs [][]byte) (int64, error) {
	c.writeBuffersCalls++
	var total int64
	for _, b := range bufs {
		n, err := c.Conn.Write(b)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// TestWrapCapabilityGating pins the fast-path passthrough contract of
// Transfer.Wrap: the instrumented conn advertises io.ReaderFrom and
// WriteBuffers exactly when the conn underneath provides them, forwards
// each call once, and counts the bytes as stream progress — the MODE E
// fast path must never bypass stream telemetry, and a plain conn must not
// be dressed up as one that batches.
func TestWrapCapabilityGating(t *testing.T) {
	reg := newTestRegistry(t)
	tr := reg.Begin("gating", "test")

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	capable := &fullCapConn{Conn: a}
	wrapped := tr.Wrap(0, capable, capable)
	rf, ok := wrapped.(io.ReaderFrom)
	if !ok {
		t.Fatal("Wrap over a capable conn must forward io.ReaderFrom")
	}
	bw, ok := wrapped.(buffersWriter)
	if !ok {
		t.Fatal("Wrap over a capable conn must forward WriteBuffers")
	}
	before := streamHealth(t, reg, 0).LastProgress
	done := make(chan struct{})
	go func() {
		defer close(done)
		io.Copy(io.Discard, b)
	}()
	if _, err := rf.ReadFrom(bytes.NewReader(make([]byte, 100))); err != nil {
		t.Fatal(err)
	}
	if _, err := bw.WriteBuffers([][]byte{make([]byte, 17), make([]byte, 83)}); err != nil {
		t.Fatal(err)
	}
	wrapped.Close()
	<-done
	if capable.readFromCalls != 1 || capable.writeBuffersCalls != 1 {
		t.Fatalf("capabilities not forwarded once each: ReadFrom=%d WriteBuffers=%d",
			capable.readFromCalls, capable.writeBuffersCalls)
	}
	sh := streamHealth(t, reg, 0)
	if sh.Bytes != 200 {
		t.Fatalf("stream counted %d bytes across ReadFrom and WriteBuffers, want 200", sh.Bytes)
	}
	if !sh.LastProgress.After(before) {
		t.Fatalf("fast-path writes did not refresh last progress (%v, was %v)", sh.LastProgress, before)
	}

	// Over a plain conn the wrapper must advertise neither, or callers
	// would silently lose batching to per-slice writes.
	c, d := net.Pipe()
	defer c.Close()
	defer d.Close()
	plain := tr.Wrap(1, c, c)
	if _, ok := plain.(io.ReaderFrom); ok {
		t.Fatal("Wrap over a plain conn must not advertise io.ReaderFrom")
	}
	if _, ok := plain.(buffersWriter); ok {
		t.Fatal("Wrap over a plain conn must not advertise WriteBuffers")
	}
}

// TestWrapCountsBytesBothWays: plain Read and Write both count toward the
// stream, on each end's own transfer record.
func TestWrapCountsBytesBothWays(t *testing.T) {
	sendReg, recvReg := newTestRegistry(t), newTestRegistry(t)
	a, b := net.Pipe()
	ca := sendReg.Begin("send", "test").Wrap(0, a, a)
	cb := recvReg.Begin("recv", "test").Wrap(0, b, b)
	go func() {
		ca.Write(bytes.Repeat([]byte("x"), 1000))
		ca.Close()
	}()
	io.Copy(io.Discard, cb)
	if got := streamHealth(t, sendReg, 0).Bytes; got != 1000 {
		t.Fatalf("sender counted %d bytes, want 1000", got)
	}
	if got := streamHealth(t, recvReg, 0).Bytes; got != 1000 {
		t.Fatalf("receiver counted %d bytes, want 1000", got)
	}
}

// TestWrapForwardsCloseWrite: stream mode signals EOF by half-close, so
// the instrumented conn has to pass CloseWrite through to the transport.
func TestWrapForwardsCloseWrite(t *testing.T) {
	nw := netsim.NewNetwork()
	l, err := nw.Listen("s", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan []byte, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- nil
			return
		}
		data, _ := io.ReadAll(c) // returns only when CloseWrite propagates EOF
		done <- data
	}()
	raw, err := nw.Dial("c", "s:1")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	wrapped := newTestRegistry(t).Begin("half-close", "test").Wrap(0, raw, raw)
	wrapped.Write([]byte("fin"))
	hc, ok := wrapped.(interface{ CloseWrite() error })
	if !ok {
		t.Fatal("instrumented conn lost CloseWrite")
	}
	hc.CloseWrite()
	select {
	case data := <-done:
		if string(data) != "fin" {
			t.Fatalf("peer read %q, want %q", data, "fin")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("EOF never reached the peer")
	}
}
