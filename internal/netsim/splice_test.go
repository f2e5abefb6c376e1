package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"

	"gridftp.dev/instant/internal/lease"
)

// pair dials a fresh conn across a link with params p (nil: unshaped) and
// returns both ends.
func pair(t *testing.T, p *LinkParams) (*Conn, *Conn) {
	t.Helper()
	nw := NewNetwork()
	if p != nil {
		nw.SetLink("a", "b", *p)
	}
	l, err := nw.Listen("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, err := nw.Dial("a", "b:1")
	if err != nil {
		t.Fatal(err)
	}
	s := <-accepted
	if s == nil {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c.(*Conn), s.(*Conn)
}

// blockSource is a MODE E-shaped block stream: a 17-byte header and a
// payload per block, the payload a pattern that names its offset.
func blockSource(blocks, size int) (hdrs, payloads [][]byte) {
	for i := 0; i < blocks; i++ {
		hdrs = append(hdrs, bytes.Repeat([]byte{byte(i)}, 17))
		p := make([]byte, size)
		for j := range p {
			p[j] = byte(i*size + j*7)
		}
		payloads = append(payloads, p)
	}
	return hdrs, payloads
}

// statedReader states how many bytes it has left, as ReadFrom asks.
type statedReader struct {
	r    io.Reader
	left int
}

func (s *statedReader) Len() int { return s.left }

func (s *statedReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	s.left -= n
	return n, err
}

// stamp is one queued chunk: its size, its buffer's capacity, and the
// simulated time it arrives, from when the first queued chunk does.
type stamp struct {
	size, cap int
	at        time.Duration
}

// stamps snapshots the chunks c has queued toward its peer. Times are taken
// from the first chunk's, so when the sender began is out of frame.
func stamps(c *Conn) []stamp {
	h := c.wr
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]stamp, len(h.buf))
	for i, ch := range h.buf {
		out[i] = stamp{len(ch.data), cap(ch.full), ch.at.Sub(h.buf[0].at)}
	}
	return out
}

// drain takes everything c's peer s has been sent, by WriteTo or by Read.
func drain(t *testing.T, s *Conn, direct bool) []byte {
	t.Helper()
	var got bytes.Buffer
	var err error
	if direct {
		_, err = s.WriteTo(&got)
	} else {
		_, err = got.ReadFrom(struct{ io.Reader }{s}) // Read, not WriteTo
	}
	if err != nil {
		t.Fatal(err)
	}
	return got.Bytes()
}

// sameTimes fails t at the first chunk whose size or simulated arrival
// (beyond slack) differs between a and b.
func sameTimes(t *testing.T, what string, a, b []stamp, slack time.Duration) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d chunks against %d (%v, %v)", what, len(a), len(b), a, b)
	}
	for i := range a {
		if d := a[i].at - b[i].at; a[i].size != b[i].size || d > slack || d < -slack {
			t.Fatalf("%s: chunk %d is %d bytes at %v against %d bytes at %v (all: %v, %v)",
				what, i, a[i].size, a[i].at, b[i].size, b[i].at, a, b)
		}
	}
}

// TestSendfileAndSpliceMatchWritevAndRead: a block stream sent with
// ReadFrom and received with WriteTo delivers the same bytes, at the same
// simulated times, as one sent with WriteBuffers and received with Read, on
// a shaped, a lossy and an unshaped link. All four share one send loop and
// one receive loop, so only the copies differ. The times compared are the
// ones the shaper stamps on the queued chunks, which every receive waits
// out, so the receiver's scheduling is out of frame; a sender that loses
// the CPU for longer than its lead on the link stamps later, and only
// later, so each chunk's time is its earliest in three runs.
func TestSendfileAndSpliceMatchWritevAndRead(t *testing.T) {
	const blocks, payload = 12, 64 << 10
	block := 17 + payload
	hdrs, payloads := blockSource(blocks, payload)
	shaped := LinkParams{Bandwidth: 40e6, RTT: 20 * time.Millisecond, StreamWindow: 64 << 10}
	lossy := LinkParams{Bandwidth: 40e6, RTT: 20 * time.Millisecond, StreamWindow: 1 << 20, Loss: 1e-4}
	// run queues the whole stream, reads its chunks' stamps, and drains it.
	run := func(t *testing.T, p *LinkParams, direct bool) ([]byte, []stamp) {
		c, s := pair(t, p)
		for i := range hdrs {
			var err error
			if direct {
				_, err = c.ReadFrom(&statedReader{io.MultiReader(bytes.NewReader(hdrs[i]), bytes.NewReader(payloads[i])), block})
			} else {
				_, err = c.WriteBuffers([][]byte{hdrs[i], payloads[i]})
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		c.CloseWrite()
		st := stamps(c)
		return drain(t, s, direct), st
	}
	for _, tc := range []struct {
		name string
		link *LinkParams
	}{{"shaped", &shaped}, {"lossy", &lossy}, {"unshaped", nil}} {
		t.Run(tc.name, func(t *testing.T) {
			earliest := func(direct bool) ([]byte, []stamp) {
				got, st := run(t, tc.link, direct)
				for i := 0; i < 2; i++ {
					_, again := run(t, tc.link, direct)
					for j := range st {
						st[j].at = min(st[j].at, again[j].at)
					}
				}
				return got, st
			}
			copied, copiedAt := earliest(false)
			direct, directAt := earliest(true)
			if !bytes.Equal(copied, direct) || len(direct) != blocks*block {
				t.Fatalf("ReadFrom/WriteTo delivered %d bytes, WriteBuffers/Read %d, and they differ", len(direct), len(copied))
			}
			sameTimes(t, "ReadFrom against WriteBuffers", directAt, copiedAt, 5*time.Millisecond)
			t.Logf("last block at %v (ReadFrom) and %v (WriteBuffers)", directAt[blocks-1].at, copiedAt[blocks-1].at)
		})
	}
}

// TestReadFromOfAFileArrivesAsItsWritesWould: a MODE S send of a whole file
// by ReadFrom — a reader stating the file's length — is queued as chunks of
// at most maxChunk, each from a chunk pool, and on a shaped link each arrives
// when the same bytes would by the block-sized writes of a buffered send:
// the receiver has the file's first 2 MiB 21 ms after the link is free,
// where one chunk would hold all 4 MiB back for 42 ms. Each send follows a
// 2 MiB write that keeps the link busy while the first chunk is filled, so
// the times, taken from that write's, are the shaper's arithmetic and not
// how long a fill took.
func TestReadFromOfAFileArrivesAsItsWritesWould(t *testing.T) {
	const size, block, lead = 4 << 20, 256 << 10, 2 << 20
	link := LinkParams{Bandwidth: 100e6, RTT: 20 * time.Millisecond, StreamWindow: 8 << 20}
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i * 7)
	}
	run := func(direct bool) ([]byte, []stamp) {
		c, s := pair(t, &link)
		if _, err := c.Write(make([]byte, lead)); err != nil {
			t.Fatal(err)
		}
		if direct {
			if n, err := c.ReadFrom(&io.LimitedReader{R: bytes.NewReader(data), N: size}); n != size || err != nil {
				t.Fatalf("ReadFrom = %d, %v", n, err)
			}
		} else {
			for off := 0; off < size; off += block {
				if _, err := c.Write(data[off : off+block]); err != nil {
					t.Fatal(err)
				}
			}
		}
		c.CloseWrite()
		st := stamps(c)
		for _, ch := range st {
			// A capacity is a lease class when a lease of it is that big.
			b := lease.Get(ch.cap)
			class := cap(b)
			lease.Put(b)
			if ch.size > maxChunk || ch.cap > maxChunk || class != ch.cap {
				t.Fatalf("a %d-byte chunk of capacity %d: not a pooled one of at most %d bytes", ch.size, ch.cap, maxChunk)
			}
		}
		return drain(t, s, direct)[lead:], st[1:]
	}
	written, writtenAt := run(false)
	sent, sentAt := run(true)
	if !bytes.Equal(sent, data) || !bytes.Equal(written, data) {
		t.Fatal("the received bytes differ from the file")
	}
	// Each of the file's chunks against the write that ends where it does.
	var ends []stamp
	off, end, w := 0, 0, 0
	for _, ch := range sentAt {
		for off += ch.size; end < off; w++ {
			end += writtenAt[w].size
		}
		if end != off {
			t.Fatalf("a chunk of the file ends at %d, inside a write", off)
		}
		ends = append(ends, stamp{ch.size, ch.cap, writtenAt[w-1].at})
	}
	sameTimes(t, "ReadFrom's chunks against the writes ending with them", sentAt, ends, 5*time.Millisecond)
}

// takeN is a WriteTo sink that takes n bytes and then refuses.
type takeN struct {
	got []byte
	n   int
}

var errFull = errors.New("sink full")

func (w *takeN) Write(p []byte) (int, error) {
	k := min(len(p), w.n-len(w.got))
	w.got = append(w.got, p[:k]...)
	if len(w.got) == w.n {
		return k, errFull
	}
	return k, nil
}

// TestWriteToLeavesWhatItsWriterRefuses: a writer that takes part of a
// chunk ends WriteTo with its own error, and the rest of the chunk, and the
// chunks behind it, are the next Read's.
func TestWriteToLeavesWhatItsWriterRefuses(t *testing.T) {
	c, s := pair(t, nil)
	msg := []byte("header-and-the-rest")
	if _, err := c.Write(msg[:6]); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(msg[6:]); err != nil {
		t.Fatal(err)
	}
	c.CloseWrite()
	for _, n := range []int{4, 6} { // inside the first chunk, then at its end
		w := &takeN{n: n}
		got, err := s.WriteTo(w)
		if err != errFull || got != int64(n) || string(w.got) != string(msg[:n]) {
			t.Fatalf("WriteTo into a %d-byte sink: %d bytes %q, %v; want %d, %q, the sink's error", n, got, w.got, err, n, msg[:n])
		}
		rest, err := io.ReadAll(s)
		if err != nil || string(rest) != string(msg[n:]) {
			t.Fatalf("after a %d-byte WriteTo the reads got %q, %v; want %q", n, rest, err, msg[n:])
		}
		c, s = pair(t, nil)
		c.Write(msg[:6])
		c.Write(msg[6:])
		c.CloseWrite()
	}
}

// blockingWriter parks in Write until release closes.
type blockingWriter struct {
	entered chan struct{}
	release chan struct{}
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	close(w.entered)
	<-w.release
	return len(p), nil
}

// TestWriteToEndsAsReadDoes: WriteTo returns at EOF after CloseWrite with
// what it moved, fails with os.ErrDeadlineExceeded at the read deadline, and
// fails with net.ErrClosed when the conn is aborted — waiting for data or
// while its writer holds a chunk — as Read does.
func TestWriteToEndsAsReadDoes(t *testing.T) {
	t.Run("EOF after CloseWrite", func(t *testing.T) {
		c, s := pair(t, nil)
		c.Write([]byte("abc"))
		c.CloseWrite()
		var out bytes.Buffer
		if n, err := s.WriteTo(&out); n != 3 || err != nil || out.String() != "abc" {
			t.Fatalf("WriteTo = %d, %v (%q); want 3, nil", n, err, out.String())
		}
	})
	t.Run("deadline", func(t *testing.T) {
		_, s := pair(t, nil)
		s.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if _, err := s.WriteTo(io.Discard); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("WriteTo past its deadline: %v", err)
		}
		if _, err := s.Read(make([]byte, 1)); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("Read past its deadline: %v", err)
		}
	})
	t.Run("abort while waiting", func(t *testing.T) {
		c, s := pair(t, nil)
		go func() {
			time.Sleep(10 * time.Millisecond)
			c.Abort()
		}()
		if _, err := s.WriteTo(io.Discard); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("WriteTo on an aborted conn: %v", err)
		}
	})
	t.Run("abort while the writer holds a chunk", func(t *testing.T) {
		c, s := pair(t, nil)
		c.Write(make([]byte, 4096))
		c.Write(make([]byte, 4096))
		w := &blockingWriter{entered: make(chan struct{}), release: make(chan struct{})}
		done := make(chan error, 1)
		go func() {
			_, err := s.WriteTo(w)
			done <- err
		}()
		<-w.entered
		c.Abort() // empties the queue; the lent chunk is WriteTo's to release
		close(w.release)
		if err := <-done; !errors.Is(err, net.ErrClosed) {
			t.Fatalf("WriteTo across an abort: %v", err)
		}
	})
}

// shrinking states more bytes than it has.
type shrinking struct{ r *bytes.Reader }

func (s shrinking) Len() int                   { return s.r.Len() + 100 }
func (s shrinking) Read(p []byte) (int, error) { return s.r.Read(p) }

// failing fails after its first n bytes.
type failing struct{ n int }

var errStorage = errors.New("storage failed")

func (f *failing) Len() int { return 1 << 20 }
func (f *failing) Read(p []byte) (int, error) {
	if f.n == 0 {
		return 0, errStorage
	}
	k := min(len(p), f.n)
	f.n -= k
	return k, nil
}

// TestReadFromEndsAsWriteDoes: ReadFrom sends what a reader that ends early
// has, returns a reader's own error unwrapped after queueing what it read,
// refuses a closed conn, and fails at the write deadline, as Write does.
func TestReadFromEndsAsWriteDoes(t *testing.T) {
	t.Run("reader shorter than stated", func(t *testing.T) {
		c, s := pair(t, nil)
		n, err := c.ReadFrom(shrinking{bytes.NewReader([]byte("short"))})
		c.CloseWrite()
		got, _ := io.ReadAll(s)
		if n != 5 || err != nil || string(got) != "short" {
			t.Fatalf("ReadFrom = %d, %v, peer read %q; want 5, nil, \"short\"", n, err, got)
		}
	})
	t.Run("limited reader", func(t *testing.T) {
		c, s := pair(t, nil)
		n, err := c.ReadFrom(&io.LimitedReader{R: bytes.NewReader([]byte("limited!")), N: 7})
		c.CloseWrite()
		got, _ := io.ReadAll(s)
		if n != 7 || err != nil || string(got) != "limited" {
			t.Fatalf("ReadFrom = %d, %v, peer read %q; want 7, nil, \"limited\"", n, err, got)
		}
	})
	t.Run("reader fails", func(t *testing.T) {
		c, s := pair(t, nil)
		n, err := c.ReadFrom(&failing{n: 10})
		c.CloseWrite()
		got, _ := io.ReadAll(s)
		if n != 10 || err != errStorage || len(got) != 10 {
			t.Fatalf("ReadFrom = %d, %v, peer read %d bytes; want 10, the reader's error, 10", n, err, len(got))
		}
	})
	t.Run("reader without a length", func(t *testing.T) {
		c, s := pair(t, nil)
		n, err := c.ReadFrom(io.MultiReader(bytes.NewReader([]byte("no ")), bytes.NewReader([]byte("length"))))
		c.CloseWrite()
		got, _ := io.ReadAll(s)
		if n != 9 || err != nil || string(got) != "no length" {
			t.Fatalf("ReadFrom = %d, %v, peer read %q", n, err, got)
		}
	})
	t.Run("closed", func(t *testing.T) {
		c, _ := pair(t, nil)
		c.Close()
		if _, err := c.ReadFrom(bytes.NewReader([]byte("x"))); !errors.Is(err, net.ErrClosed) {
			t.Fatalf("ReadFrom on a closed conn: %v", err)
		}
	})
	t.Run("deadline", func(t *testing.T) {
		c, _ := pair(t, nil)
		c.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
		// Nothing reads: the buffer fills and the send waits for room.
		big := bytes.NewReader(make([]byte, minBufferBound+1))
		if _, err := c.ReadFrom(big); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("ReadFrom past its deadline: %v", err)
		}
	})
}

// TestQueuedWriteSucceedsAcrossAClose: a write whose bytes are all queued
// reports them written, as a socket does for bytes in its send buffer, even
// when the peer hard-closes while the writer sleeps out its pacing; the next
// write fails. On the reference WAN one write of four windows is one chunk,
// and its writer sleeps about 60 ms after queueing it: the peer closes as
// soon as the chunk is queued.
func TestQueuedWriteSucceedsAcrossAClose(t *testing.T) {
	link := LinkParams{Bandwidth: 40e6, RTT: 20 * time.Millisecond, StreamWindow: 64 << 10}
	for _, via := range []string{"Write", "ReadFrom"} {
		t.Run(via, func(t *testing.T) {
			c, s := pair(t, &link)
			p := make([]byte, 4*link.StreamWindow)
			go func() { // closes once the write's bytes are all queued
				for {
					c.wr.mu.Lock()
					queued := c.wr.buffered
					c.wr.mu.Unlock()
					if queued == len(p) {
						s.Close()
						return
					}
					time.Sleep(time.Millisecond)
				}
			}()
			var n int64
			var err error
			if via == "Write" {
				var k int
				k, err = c.Write(p)
				n = int64(k)
			} else {
				n, err = c.ReadFrom(bytes.NewReader(p))
			}
			if n != int64(len(p)) || err != nil {
				t.Fatalf("%s of %d queued bytes across the peer's close = %d, %v; want %d, nil", via, len(p), n, err, len(p))
			}
			if _, err := c.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
				t.Fatalf("the write after the close: %v, want %v", err, net.ErrClosed)
			}
		})
	}
}
