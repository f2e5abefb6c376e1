package gridftp

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"
	"time"

	"gridftp.dev/instant/internal/ftp"
)

// A server that writes a transfer's closing markers and its completion reply
// as one segment changes nothing the client parses and everything about how
// it arrives: thirty-odd replies in one read instead of one read each. These
// tests feed the receiving side one closing flight cut every way a transport
// may cut it and require the same outcome each time.

// chunks is the reading half of a control connection that delivers its bytes
// in the given pieces, one per Read.
type chunks struct {
	net.Conn // nil: only Read is called
	pieces   [][]byte
}

func (c *chunks) Read(p []byte) (int, error) {
	if len(c.pieces) == 0 {
		return 0, io.EOF
	}
	n := copy(p, c.pieces[0])
	if c.pieces[0] = c.pieces[0][n:]; len(c.pieces[0]) == 0 {
		c.pieces = c.pieces[1:]
	}
	return n, nil
}

// cutAt returns wire in two pieces cut at offset i, whole when i is 0, and a
// byte at a time when i is negative.
func cutAt(wire []byte, i int) [][]byte {
	switch {
	case i < 0:
		pieces := make([][]byte, len(wire))
		for j := range wire {
			pieces[j] = wire[j : j+1]
		}
		return pieces
	case i == 0:
		return [][]byte{append([]byte(nil), wire...)}
	}
	return [][]byte{append([]byte(nil), wire[:i]...), append([]byte(nil), wire[i:]...)}
}

// closingFlight renders what a server writes at the end of a transfer of
// streams stripes carrying share bytes each: the 111 (a receive's), one 112
// per stripe, the completion reply — through the writer the server uses.
func closingFlight(t *testing.T, streams int, share int64, restart bool) []byte {
	t.Helper()
	var flight []ftp.Reply
	if restart {
		flight = append(flight, ftp.Reply{Code: ftp.CodeRestartMarker,
			Lines: []string{fmt.Sprintf("Range Marker 0-%d", int64(streams)*share)}})
	}
	tr := &perfTracker{}
	for i := 0; i < streams; i++ {
		tr.add(i, share)
	}
	flight = append(flight, tr.frame(true)...)
	flight = append(flight, ftp.Reply{Code: ftp.CodeClosingData, Lines: []string{"Transfer complete"}})
	var wire bytes.Buffer
	if err := ftp.NewConn(writerConn{w: &wire}).WriteReplies(flight...); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes()
}

// writerConn is the writing half of a control connection: what is written
// goes to w, and nothing else is called.
type writerConn struct {
	net.Conn
	w io.Writer
}

func (c writerConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// bareClient is a session that has only a control channel to read.
func bareClient(pieces [][]byte) *Client {
	return &Client{ctrl: ftp.NewConn(&chunks{pieces: pieces}), perfBytes: make(map[int]int64)}
}

// TestClosingFlightArrivesHoweverItIsCut: the closing flight of a 32-stream
// receive — 111, 32 × 112, 226 — read as one segment, cut in two at each of
// its first 300 byte offsets, and a byte at a time, gives finalReply's caller
// the same PerfSnapshot, the same last restart ranges and the same 226.
func TestClosingFlightArrivesHoweverItIsCut(t *testing.T) {
	const streams, share = 32, 1 << 20
	wire := closingFlight(t, streams, share, true)
	if len(wire) < 4096 {
		t.Fatalf("closing flight is %d bytes: meant to exceed one 4 KiB read buffer", len(wire))
	}
	for cut := -1; cut <= 300; cut++ {
		c := bareClient(cutAt(wire, cut))
		var markers []Range
		var seen []PerfMarker
		c.OnPerf(func(m PerfMarker) { seen = append(seen, m) })
		r, err := c.finalReply(func(p ftp.Reply) {
			if ranges := c.handlePreliminary(p); ranges != nil {
				markers = ranges
			}
		})
		if err != nil || r.Code != ftp.CodeClosingData || r.Text() != "Transfer complete" {
			t.Fatalf("cut %d: final reply %v, %v", cut, r, err)
		}
		if total, stripes, n := c.PerfSnapshot(); total != streams*share || stripes != streams || n != streams {
			t.Fatalf("cut %d: PerfSnapshot %d bytes, %d stripes, %d markers", cut, total, stripes, n)
		}
		for i, m := range seen {
			if m.Stripe != i || m.StripeBytes != share || m.TotalStripes != streams {
				t.Fatalf("cut %d: marker %d is %+v", cut, i, m)
			}
		}
		if want := []Range{{0, streams * share}}; !reflect.DeepEqual(markers, want) {
			t.Fatalf("cut %d: restart ranges %v, want %v", cut, markers, want)
		}
		// Nothing of the flight is left for the next read to trip over.
		if _, err := c.finalReply(nil); err != io.EOF {
			t.Fatalf("cut %d: a read behind the flight returned %v, want EOF", cut, err)
		}
	}
}

// TestPipelineReadsAClosingFlightHoweverItIsCut: Pipeline.readReplies reads
// the destination's 150 and closing flight — 111, 4 × 112, 226 — and the
// source's 150 and 226, each as one segment, cut in two at every offset of the
// first 300 bytes and a byte at a time: the same result every time.
func TestPipelineReadsAClosingFlightHoweverItIsCut(t *testing.T) {
	const streams, share = 4, 1 << 20
	open := []byte("150 Opening data connection\r\n")
	dstWire := append(append([]byte(nil), open...), closingFlight(t, streams, share, true)...)
	srcWire := append(append([]byte(nil), open...), closingFlight(t, streams, share, false)...)
	for cut := -1; cut <= 300; cut++ {
		src, dst := bareClient(cutAt(srcWire, cut)), bareClient(cutAt(dstWire, cut))
		p := NewPipeline(src, dst)
		var calls int
		res, err := p.readReplies(pipelined{start: time.Now(), dstPath: "/d/f", onMarker: func([]Range) { calls++ }})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if want := []Range{{0, streams * share}}; !reflect.DeepEqual(res.Markers, want) || calls != 1 {
			t.Fatalf("cut %d: markers %v after %d callbacks, want %v after one", cut, res.Markers, calls, want)
		}
		if total, stripes, n := dst.PerfSnapshot(); total != streams*share || stripes != streams || n != streams {
			t.Fatalf("cut %d: destination PerfSnapshot %d bytes, %d stripes, %d markers", cut, total, stripes, n)
		}
		if _, _, n := src.PerfSnapshot(); n != 0 {
			t.Fatalf("cut %d: the source's markers were counted (%d): its preliminaries are dropped", cut, n)
		}
	}
}

// TestMarkersAreCheapToFrameAndRead: once a tick's markers are one write they
// arrive on their cadence — about four times as many reach the client of a
// 16-stream transfer as when each waited its turn on a busy link — so what a
// marker costs shows in allocs_per_op. Framing and writing one costs the
// server two allocations (its string, its lines) and reading one costs the
// client five; both were about ten while every line was its own string.
func TestMarkersAreCheapToFrameAndRead(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const streams = 16
	tr := &perfTracker{}
	for i := 0; i < streams; i++ {
		tr.add(i, 1<<20)
	}
	conn := ftp.NewConn(writerConn{w: io.Discard})
	if n := testing.AllocsPerRun(100, func() { conn.WriteReplies(tr.frame(true)...) }); n > 3*streams {
		t.Errorf("framing and writing %d markers costs %.0f allocations, want at most %d", streams, n, 3*streams)
	}
	wire := closingFlight(t, streams, 1<<20, false)
	n := testing.AllocsPerRun(100, func() {
		c := bareClient([][]byte{wire})
		if _, err := c.finalReply(func(p ftp.Reply) { c.handlePreliminary(p) }); err != nil {
			t.Fatal(err)
		}
	})
	if n > 6*streams {
		t.Errorf("reading %d markers and a 226 costs %.0f allocations, want at most %d", streams, n, 6*streams)
	}
}
