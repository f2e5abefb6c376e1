package gridftp

import (
	"bytes"
	"crypto/tls"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"
)

// flightEnd is one end of an in-memory connection that makes the step-down's
// worst case the only case. What an end writes is held back until that end
// reads (or closes) and is then delivered whole, so everything it wrote
// between two reads — its Finished and the raw bytes it sent right behind —
// reaches the peer as one contiguous run; and the peer's Reads return that
// run cut into the segment sizes its script dictates, one per Read, the
// script repeating. Both ends of a handshake write a flight and then read, so
// the exchange advances as it does on a network.
type flightEnd struct {
	peer *flightEnd
	segs []byte // sizes of the segments this end's Reads return; see segment

	mu      sync.Mutex
	ready   *sync.Cond
	pending []byte // written here, not yet delivered
	inbox   []byte // delivered by the peer, not yet read
	next    int    // index into segs
	eof     bool   // the peer closed
}

func newFlightPair(segsA, segsB []byte) (*flightEnd, *flightEnd) {
	a, b := &flightEnd{segs: segsA}, &flightEnd{segs: segsB}
	a.peer, b.peer = b, a
	a.ready, b.ready = sync.NewCond(&a.mu), sync.NewCond(&b.mu)
	return a, b
}

// segment maps a script byte to a segment size: 1…128 bytes, which split a
// record header from its body and one record from the next, or 128 bytes to
// 16 KiB, which deliver several records — and what follows them — at once.
func segment(b byte) int {
	if b < 128 {
		return 1 + int(b)
	}
	return (int(b) - 127) * 128
}

func (e *flightEnd) deliver(closing bool) {
	e.mu.Lock()
	out := e.pending
	e.pending = nil
	e.mu.Unlock()
	e.peer.mu.Lock()
	e.peer.inbox = append(e.peer.inbox, out...)
	e.peer.eof = e.peer.eof || closing
	e.peer.mu.Unlock()
	e.peer.ready.Broadcast()
}

func (e *flightEnd) Write(p []byte) (int, error) {
	e.mu.Lock()
	e.pending = append(e.pending, p...)
	e.mu.Unlock()
	return len(p), nil
}

func (e *flightEnd) Read(p []byte) (int, error) {
	e.deliver(false)
	e.mu.Lock()
	defer e.mu.Unlock()
	for len(e.inbox) == 0 {
		if e.eof {
			return 0, io.EOF
		}
		e.ready.Wait()
	}
	n := len(p)
	if len(e.segs) > 0 {
		n = min(n, segment(e.segs[e.next%len(e.segs)]))
		e.next++
	}
	n = copy(p[:n], e.inbox)
	e.inbox = e.inbox[n:]
	return n, nil
}

func (e *flightEnd) Close() error                     { e.deliver(true); return nil }
func (e *flightEnd) LocalAddr() net.Addr              { return nil }
func (e *flightEnd) RemoteAddr() net.Addr             { return nil }
func (e *flightEnd) SetDeadline(time.Time) error      { return nil }
func (e *flightEnd) SetReadDeadline(time.Time) error  { return nil }
func (e *flightEnd) SetWriteDeadline(time.Time) error { return nil }

// stepDownContext is the data-channel context of the step-down tests, made
// once per TLS version: the default negotiates TLS 1.3; the other is pinned to
// TLS 1.2, whose handshake ends the other way round — the listener's Finished
// is the last flight, so there it is the connector that must not read past it.
func stepDownContext(t *testing.T, tls12 bool) *SecurityContext {
	stepDownOnce.Do(func() {
		base := testSecurity(t, "alice")
		for i := range stepDownCtxs {
			ctx := &SecurityContext{Cred: base.Cred, Trust: base.Trust, ExpectIdentity: base.ExpectIdentity}
			if i == 1 {
				ctx.tlsConfig(true).MaxVersion = tls.VersionTLS12
				ctx.tlsConfig(false).MaxVersion = tls.VersionTLS12
			}
			stepDownCtxs[i] = ctx
		}
	})
	if tls12 {
		return stepDownCtxs[1]
	}
	return stepDownCtxs[0]
}

var (
	stepDownOnce sync.Once
	stepDownCtxs [2]*SecurityContext
)

// stepDownOverSegments runs the DCAU handshake of a PROT C or S channel
// between two ends over a flight pair and has each end send its payload
// right behind its last handshake flight. Each end must complete the
// handshake and then read exactly the other's payload: a byte the tls.Conn
// had taken past its last record would be missing from it.
func stepDownOverSegments(t *testing.T, segs []byte, tls12 bool, prot ProtLevel) {
	t.Helper()
	ctx := stepDownContext(t, tls12)
	// The connector's script is the listener's read backwards, so one input
	// cuts the two directions differently.
	rev := make([]byte, len(segs))
	for i, b := range segs {
		rev[len(segs)-1-i] = b
	}
	lis, con := newFlightPair(segs, rev)
	stall := time.AfterFunc(20*time.Second, func() { lis.Close(); con.Close() })
	defer stall.Stop()

	payloads := [2][]byte{pattern(3000), pattern(70000)} // what the listener sends, what the connector sends
	errs := make(chan error, 2)
	for i, raw := range []*flightEnd{lis, con} {
		go func() {
			sec, err := secureData(raw, ctx, DCAUSelf, prot, i == 0)
			if err != nil {
				raw.Close()
				errs <- err
				return
			}
			if _, err := sec.Write(payloads[i]); err != nil {
				errs <- err
				return
			}
			got := make([]byte, len(payloads[1-i]))
			if _, err := io.ReadFull(sec, got); err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, payloads[1-i]) {
				err = errors.New("the bytes behind the handshake are not the ones sent")
			}
			errs <- err
		}()
	}
	for range payloads {
		if err := <-errs; err != nil {
			t.Fatalf("TLS 1.2 %v, PROT %c, segments %v: %v", tls12, prot, segs, err)
		}
	}
	if len(lis.inbox)+len(con.inbox) != 0 {
		t.Fatalf("%d and %d bytes left unread", len(lis.inbox), len(con.inbox))
	}
}

// TestStepDownReadsNothingPastTheHandshake: whatever the segmentation — a
// byte at a time, a record header split across reads, the last handshake
// record and the raw bytes behind it in one segment — both ends finish the
// handshake and find every byte that followed it on the conn below, in both
// TLS versions and for PROT C and PROT S.
func TestStepDownReadsNothingPastTheHandshake(t *testing.T) {
	scripts := [][]byte{
		{0},          // one byte per read
		{2, 1},       // three bytes, then two: every header arrives in two parts
		{255},        // 16 KiB: whole flights, Finished and the raw bytes together
		{4, 255},     // exactly a header, then everything else
		{200, 0, 36}, // mixed
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 6; i++ {
		script := make([]byte, 1+rng.Intn(40))
		rng.Read(script)
		scripts = append(scripts, script)
	}
	for _, segs := range scripts {
		for _, tls12 := range []bool{false, true} {
			for _, prot := range []ProtLevel{ProtClear, ProtSafe} {
				stepDownOverSegments(t, segs, tls12, prot)
			}
		}
	}
}

// TestRecordConnNeverCrossesARecord feeds recordConn arbitrary records and
// arbitrary read sizes from a reader that would hand over everything at once:
// no read returns bytes of two records, or of a header and its body, and once
// the records have been read the reader still holds all that followed them.
func TestRecordConnNeverCrossesARecord(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 200; round++ {
		var stream []byte
		var ends []int // where each header and each body ends
		for n := rng.Intn(6); n >= 0; n-- {
			body := make([]byte, rng.Intn(600)) // empty bodies included
			hdr := []byte{22, 3, 3, 0, 0}
			binary.BigEndian.PutUint16(hdr[3:], uint16(len(body)))
			stream = append(append(stream, hdr...), body...)
			ends = append(ends, len(stream)-len(body), len(stream))
		}
		records := len(stream)
		stream = append(stream, pattern(rng.Intn(100))...)
		below := bytes.NewReader(stream)
		rc := &recordConn{Conn: readerConn{below}}
		for at := 0; at < records; {
			n, err := rc.Read(make([]byte, 1+rng.Intn(700)))
			if err != nil {
				t.Fatal(err)
			}
			for _, end := range ends {
				if at < end && at+n > end {
					t.Fatalf("a read of %d bytes at %d crosses the boundary at %d", n, at, end)
				}
			}
			at += n
		}
		if below.Len() != len(stream)-records {
			t.Fatalf("%d bytes left below the records, want %d", below.Len(), len(stream)-records)
		}
	}
}

// readerConn is a net.Conn that only reads.
type readerConn struct{ io.Reader }

func (readerConn) Write(p []byte) (int, error)      { return len(p), nil }
func (readerConn) Close() error                     { return nil }
func (readerConn) LocalAddr() net.Addr              { return nil }
func (readerConn) RemoteAddr() net.Addr             { return nil }
func (readerConn) SetDeadline(time.Time) error      { return nil }
func (readerConn) SetReadDeadline(time.Time) error  { return nil }
func (readerConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzRecordConn is TestStepDownReadsNothingPastTheHandshake with the
// segmentation, the TLS version and the protection level chosen by the
// fuzzer. The record parser is pre-authentication input on every data port.
func FuzzRecordConn(f *testing.F) {
	f.Add([]byte{0}, false, false)
	f.Add([]byte{2, 1}, true, false)
	f.Add([]byte{255}, false, true)
	f.Add([]byte{4, 255}, true, true)
	f.Fuzz(func(t *testing.T, segs []byte, tls12, safe bool) {
		if len(segs) > 64 {
			segs = segs[:64]
		}
		prot := ProtClear
		if safe {
			prot = ProtSafe
		}
		stepDownOverSegments(t, segs, tls12, prot)
	})
}
