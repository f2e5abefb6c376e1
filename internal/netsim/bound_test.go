package netsim

import (
	"bytes"
	"errors"
	"io"
	"os"
	"testing"
	"time"
)

// queued is what h holds, written and not yet read.
func queued(h *pipeHalf) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.buffered
}

// awaitQueued waits for h to hold want bytes.
func awaitQueued(t *testing.T, h *pipeHalf, want int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); queued(h) != want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the direction holds %d bytes, want %d", queued(h), want)
		}
	}
}

// dialTransport returns the dialing end of a conn of transport tr over a
// link p; the accepting end never reads.
func dialTransport(t *testing.T, p LinkParams, tr Transport) *Conn {
	t.Helper()
	nw := NewNetwork()
	nw.SetLink("a", "b", p)
	l, err := nw.Listen("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go l.Accept()
	c, err := nw.Host("a").DialTransport("b:1", tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c.(*Conn)
}

// TestStalledReaderBlocksTheWriterAtTheBound: against a reader that reads
// nothing, a writer queues a direction's bound and no more, as a socket's
// send and receive buffers would hold it. On an unshaped link that is the
// floor, two whole chunks; on a link whose window is larger, two windows;
// for a rate-based stream, which has no window, two of the path's
// bandwidth-delay products (here 32 MiB/s for 62.5 ms, 2 MiB).
func TestStalledReaderBlocksTheWriterAtTheBound(t *testing.T) {
	for _, tc := range []struct {
		name string
		link LinkParams
		tr   Transport
		want int
	}{
		{"unshaped", LinkParams{}, TransportTCP, minBufferBound},
		{"window-limited", LinkParams{RTT: 2 * time.Millisecond, StreamWindow: 4 << 20}, TransportTCP, 8 << 20},
		{"rate-based", LinkParams{Bandwidth: 32 << 20, RTT: 62500 * time.Microsecond}, TransportUDT, 4 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := dialTransport(t, tc.link, tc.tr)
			c.SetWriteDeadline(time.Now().Add(500 * time.Millisecond))
			n, err := c.Write(make([]byte, 2*tc.want))
			if !errors.Is(err, os.ErrDeadlineExceeded) || n != tc.want {
				t.Fatalf("a write of twice the bound to a stalled reader = %d, %v; want %d, a deadline", n, err, tc.want)
			}
			if q := c.wr.shaper.link.statsSnapshot().MaxQueue; q != int64(tc.want) {
				t.Fatalf("the link queued at most %d bytes, want %d", q, tc.want)
			}
		})
	}
}

// TestSetLinkMovesTheBound: reshaping a link mid-connection moves the bound
// of the directions crossing it. A writer blocked at the floor resumes when
// a larger window raises it, and once it is lowered again the writer waits
// for the reader to drain below the new bound, not the old.
func TestSetLinkMovesTheBound(t *testing.T) {
	small, large := LinkParams{}, LinkParams{StreamWindow: 2 << 20}
	c, s := pair(t, &small)
	setLink := c.wr.shaper.link.updateParams        // what SetLink does to a link in use
	data := bytes.Repeat([]byte("bounded "), 1<<20) // 8 MiB
	done := make(chan error, 1)
	go func() {
		_, err := c.Write(data)
		c.CloseWrite()
		done <- err
	}()
	awaitQueued(t, c.wr, minBufferBound)
	setLink(large)
	awaitQueued(t, c.wr, 4<<20)
	setLink(small)
	got := make([]byte, len(data))
	if _, err := io.ReadFull(s, got[:2<<20]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // the raised bound would let the writer refill to 4 MiB
	if q := queued(c.wr); q != 2<<20 {
		t.Fatalf("after the bound fell to %d and 2 MiB of 4 were read, the direction holds %d bytes, want 2 MiB", minBufferBound, q)
	}
	if _, err := io.ReadFull(s, got[2<<20:]); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("the received bytes differ from the written")
	}
}

// TestWriteLargerThanTheBound: one write of three bounds completes against
// a reader that drains it, and the direction never holds more than its
// bound on the way.
func TestWriteLargerThanTheBound(t *testing.T) {
	c, s := pair(t, nil)
	data := bytes.Repeat([]byte("0123456789abcdef"), 3*minBufferBound/16)
	got := make(chan []byte, 1)
	go func() {
		b, _ := io.ReadAll(s)
		got <- b
	}()
	if n, err := c.Write(data); n != len(data) || err != nil {
		t.Fatalf("a write of three bounds = %d, %v", n, err)
	}
	c.CloseWrite()
	if !bytes.Equal(<-got, data) {
		t.Fatal("the received bytes differ from the written")
	}
	if q := c.wr.shaper.link.statsSnapshot().MaxQueue; q > minBufferBound {
		t.Fatalf("the link queued %d bytes, more than the bound %d", q, minBufferBound)
	}
}
