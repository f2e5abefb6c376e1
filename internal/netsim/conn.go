package netsim

import (
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gridftp.dev/instant/internal/lease"
)

// maxChunk is the most one chunk holds. A call that sends more — a whole
// file by ReadFrom, say — is queued as several chunks, each leased and each
// arriving while the next is still on the wire, where one would hold all of
// it until its last byte was sent. It holds a 256 KiB MODE E block with its
// header whole, and it is half of minBufferBound.
//
// Chunk buffers are leased by size class (internal/lease): the E2 profile
// showed pipeHalf.write's per-chunk make([]byte, n) as a top allocator, and
// the class a chunk takes holds a power of two plus a header within a
// sixteenth of its size: a queued chunk is memory in the measured process,
// which a kernel socket buffer is not.
const maxChunk = 512 << 10

// minBufferBound is the least one direction of a connection may hold (see
// bufferBound): two whole chunks, so a writer fills one while its reader
// drains the other, and the hysteresis in reserve always has room to wait
// for.
const minBufferBound = 2 * maxChunk

// bufferBound is how much written-but-unread data one direction of a
// connection of transport tr over p may hold, modelling TCP flow control as a
// socket's buffers bound it: a writer outpacing its reader blocks once a
// window fills the receive buffer and another the send buffer. A rate-based
// stream has no window; what it keeps in flight is the path's
// bandwidth-delay product, so that stands in for it. One flat bound large
// enough for every link would let a writer on an unshaped link queue
// megabytes, heap in the measured process, and have the reader copy each
// chunk out long after it was written and left the cache.
func bufferBound(p LinkParams, tr Transport) int {
	window := p.window()
	if tr == TransportUDT {
		window = int(p.Bandwidth * p.RTT.Seconds())
	}
	return max(minBufferBound, 2*window)
}

// chunk is a span of bytes plus the simulated time at which it arrives at
// the receiver. full retains the original allocation so a fully consumed
// chunk's buffer can go back to its lease even after partial reads
// advanced data.
type chunk struct {
	data []byte
	full []byte
	at   time.Time
}

// pipeHalf is one direction of a connection: written by one end, read by
// the other. Delivery times are computed by the stream shaper when a chunk
// is queued.
type pipeHalf struct {
	mu        sync.Mutex
	buf       []chunk // the queue: a read pops its head, a send appends
	queue     []chunk // buf's backing array, from its first slot
	buffered  int     // bytes queued
	reserved  int     // bytes a send has booked room for and is still filling
	shaper    *streamShaper
	wclosed   bool          // writer called CloseWrite/Close
	dead      bool          // hard-closed; reads fail immediately
	dataReady chan struct{} // signalled when data or EOF becomes available
	spaceFree chan struct{} // signalled when buffer space frees up
	deadCh    chan struct{} // closed on hardClose; interrupts pacing sleeps
	deadOnce  sync.Once
	lent      bool // the head chunk is out with a WriteTo's writer (lend)
}

func newPipeHalf(s *streamShaper) *pipeHalf {
	return &pipeHalf{
		shaper:    s,
		dataReady: make(chan struct{}, 1),
		spaceFree: make(chan struct{}, 1),
		deadCh:    make(chan struct{}),
	}
}

// sleepUntil blocks until t. It returns false if the half is hard-closed
// first: a paced writer sleeping out a multi-second transmission under an
// injected loss spike must release immediately when the watchdog or fault
// injector tears the connection down, or stall recovery would be gated on
// the very rate limit that caused the stall.
func (h *pipeHalf) sleepUntil(t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		select {
		case <-h.deadCh:
			return false
		default:
			return true
		}
	}
	tm := leaseTimer(d)
	defer releaseTimer(tm)
	select {
	case <-tm.C:
		return true
	case <-h.deadCh:
		return false
	}
}

// timerPool recycles timers for the blocking waits below: a bulk writer
// that has a round trip of bytes booked ahead of it, a read waiting for its
// bytes to arrive, and a dial paying its handshake each park on a timer, and
// allocating a fresh runtime timer (plus its channel) per wait showed up in
// transfer allocation profiles.
var timerPool sync.Pool

func leaseTimer(d time.Duration) *time.Timer {
	if t, _ := timerPool.Get().(*time.Timer); t != nil {
		t.Reset(d)
		return t
	}
	return time.NewTimer(d)
}

func releaseTimer(t *time.Timer) {
	if !t.Stop() {
		// Drain a fire that raced the Stop so the next lease starts clean.
		select {
		case <-t.C:
		default:
		}
	}
	timerPool.Put(t)
}

func signal(ch chan struct{}) {
	select {
	case ch <- struct{}{}:
	default:
	}
}

// trackQueue moves the owning link's queue-depth counter by n bytes.
func (h *pipeHalf) trackQueue(n int64) {
	if h.shaper != nil && h.shaper.link != nil {
		h.shaper.link.stats.addQueue(n)
	}
}

// send is the one send loop: Write, WriteBuffers and ReadFrom queue their
// n bytes through it, fill copying the next bytes into each chunk. It blocks
// (until deadline) while the direction holds its bound (bufferBound), and
// also while more than one round trip of the stream's bytes is booked and
// not yet transmitted, as a socket write blocks on a full send buffer: a
// back-to-back writer is paced at the link rate and keeps it busy, and a
// small write on an idle conn returns at once. Hysteresis: once the bound
// is reached, the writer waits for room for a whole chunk — what is left to
// send, up to maxChunk — before resuming, so steady-state chunks never
// degrade into slivers (which would make per-chunk costs dominate).
//
// A chunk is filled outside the lock, so a reader's storage I/O holds up
// neither the peer nor a close. fill may stop short (a reader at its end, or
// failing); what it filled is queued and the send ends there. Bytes that
// are queued count as written: a hard close that interrupts the pacing
// sleep after the call's last chunk leaves the call's result alone and
// fails the next write.
func (h *pipeHalf) send(n int, fill func(dst []byte) (int, bool), deadline time.Time) (int, error) {
	total := 0
	for remaining := n; remaining > 0; {
		size, err := h.reserve(remaining, deadline)
		if err != nil {
			return total, err
		}
		data := lease.Get(size)
		k, more := fill(data)
		at, err := h.publish(data, k, size)
		if err != nil {
			return total, err
		}
		total += k
		remaining -= k
		if !more {
			return total, nil
		}
		// Pace the writer: it regains control once what it has booked and
		// not yet transmitted is at most one RTT at the stream's rate (one
		// window, for a window-limited stream). Transmission ends one
		// propagation before at, and the RTT is two more.
		if h.shaper != nil {
			sendDone := at.Add(-3 * h.shaper.propagation())
			if time.Until(sendDone) > 0 {
				if !deadline.IsZero() && sendDone.After(deadline) {
					h.sleepUntil(deadline)
					return total, os.ErrDeadlineExceeded
				}
				h.sleepUntil(sendDone) // a close ends the next reserve, if any
			}
		}
	}
	return total, nil
}

// reserve waits (until deadline) for room in the queue for the next chunk,
// all that is left to send up to maxChunk, and books it.
func (h *pipeHalf) reserve(remaining int, deadline time.Time) (int, error) {
	n := min(remaining, maxChunk)
	h.mu.Lock()
	for h.bound()-h.buffered-h.reserved < n && !h.wclosed && !h.dead {
		h.mu.Unlock()
		if err := waitSignal(h.spaceFree, deadline); err != nil {
			return 0, err
		}
		h.mu.Lock()
	}
	if h.wclosed || h.dead {
		h.mu.Unlock()
		return 0, net.ErrClosed
	}
	h.reserved += n
	h.mu.Unlock()
	return n, nil
}

// bound is the most the half may hold: its shaper's bufferBound, which a
// reshaped link moves, or the floor on a half with no shaper.
func (h *pipeHalf) bound() int {
	if h.shaper == nil {
		return minBufferBound
	}
	return int(h.shaper.bound.Load())
}

// setParams reshapes the half's stream and wakes a writer waiting for room,
// which a raised bound may have made.
func (h *pipeHalf) setParams(p LinkParams) {
	h.shaper.setParams(p)
	signal(h.spaceFree)
}

// publish queues the first k bytes of data, a chunk reserve booked size
// bytes for, and returns when they arrive. A closed half takes nothing.
func (h *pipeHalf) publish(data []byte, k, size int) (time.Time, error) {
	h.mu.Lock()
	h.reserved -= size
	if h.wclosed || h.dead || k == 0 {
		closed := h.wclosed || h.dead
		h.mu.Unlock()
		lease.Put(data)
		if closed {
			return time.Time{}, net.ErrClosed
		}
		return time.Time{}, nil
	}
	now := time.Now()
	at := now
	if h.shaper != nil {
		at = h.shaper.deliveryTime(k, now)
	}
	if len(h.buf) == cap(h.buf) && len(h.buf) < cap(h.queue) {
		// The popped head slots are free again: slide the queue back
		// to the front of its array rather than grow a new one.
		h.buf = h.queue[:copy(h.queue[:cap(h.queue)], h.buf)]
	}
	h.buf = append(h.buf, chunk{data: data[:k], full: data, at: at})
	if cap(h.buf) > cap(h.queue) {
		h.queue = h.buf
	}
	h.buffered += k
	h.trackQueue(int64(k))
	h.mu.Unlock()
	signal(h.dataReady)
	return at, nil
}

// writev queues the gathered slices. They land contiguously, so a MODE E
// [header, payload] pair becomes one chunk (one delivery-time computation,
// one pooled buffer) instead of two — the simulated equivalent of writev(2)
// on a TCP socket.
func (h *pipeHalf) writev(bufs [][]byte, deadline time.Time) (int, error) {
	n := 0
	for _, b := range bufs {
		n += len(b)
	}
	bi, bo := 0, 0 // gather cursor: buffer index, offset within it
	return h.send(n, func(dst []byte) (int, bool) {
		for m := 0; m < len(dst); {
			k := copy(dst[m:], bufs[bi][bo:])
			m += k
			bo += k
			if bo == len(bufs[bi]) {
				bi++
				bo = 0
			}
		}
		return len(dst), true
	}, deadline)
}

// write queues p; see send.
func (h *pipeHalf) write(p []byte, deadline time.Time) (int, error) {
	bufs := [1][][]byte{{p}}
	return h.writev(bufs[0], deadline)
}

// arrived is the one receive loop's wait: it locks h and waits (until
// deadline) for the head chunk to arrive, and for a WriteTo that has it out
// to give it back. It returns nil with h.mu held, or io.EOF after
// CloseWrite, or why the wait failed, with it released.
func (h *pipeHalf) arrived(deadline time.Time) error {
	for {
		h.mu.Lock()
		if h.dead {
			h.mu.Unlock()
			return net.ErrClosed
		}
		if len(h.buf) > 0 && !h.lent {
			at := h.buf[0].at
			if time.Until(at) <= 0 {
				return nil
			}
			h.mu.Unlock()
			if !deadline.IsZero() && at.After(deadline) {
				h.sleepUntil(deadline)
				return os.ErrDeadlineExceeded
			}
			if !h.sleepUntil(at) {
				return net.ErrClosed
			}
			continue
		}
		if h.wclosed && len(h.buf) == 0 {
			h.mu.Unlock()
			return io.EOF
		}
		h.mu.Unlock()
		if err := waitSignal(h.dataReady, deadline); err != nil {
			return err
		}
	}
}

// consumed accounts for n bytes taken off the queue and releases h.mu.
func (h *pipeHalf) consumed(n int) {
	h.buffered -= n
	h.trackQueue(-int64(n))
	h.mu.Unlock()
	signal(h.spaceFree)
}

// read pops delivered bytes into p, blocking until data is available (and
// has arrived, per its delivery timestamp) or the writer side is closed.
func (h *pipeHalf) read(p []byte, deadline time.Time) (int, error) {
	if err := h.arrived(deadline); err != nil {
		return 0, err
	}
	// Coalesce: drain as many *delivered* chunks as fit in p, so large
	// reads are not limited to one chunk per call.
	n := 0
	now := time.Now()
	for n < len(p) && len(h.buf) > 0 {
		c := &h.buf[0]
		if c.at.After(now) {
			break
		}
		m := copy(p[n:], c.data)
		n += m
		if m == len(c.data) {
			lease.Put(c.full)
			h.buf[0] = chunk{}
			h.buf = h.buf[1:]
		} else {
			c.data = c.data[m:]
		}
	}
	h.consumed(n)
	return n, nil
}

// lend hands the arrived head chunk to w, called with h.mu held (arrived),
// and w writes without it. The chunk stays at the head of the queue, so no
// byte can overtake it, and lent holds every other read off it; its buffer
// is the lender's: a hard close during w.Write empties the queue without
// pooling it, and it is released here. Bytes w does not take stay queued
// for the next read.
func (h *pipeHalf) lend(w io.Writer) (int, error) {
	c := h.buf[0]
	h.buf[0].full = nil
	h.lent = true
	h.mu.Unlock()
	k, err := w.Write(c.data)
	if k < 0 || k > len(c.data) {
		k, err = 0, errInvalidWrite
	} else if k < len(c.data) && err == nil {
		err = io.ErrShortWrite
	}
	h.mu.Lock()
	h.lent = false
	signal(h.dataReady) // a read that waited for the chunk looks again
	if h.dead {
		h.mu.Unlock()
		lease.Put(c.full)
		return k, err
	}
	if k == len(c.data) {
		h.buf[0] = chunk{}
		h.buf = h.buf[1:]
		lease.Put(c.full)
	} else {
		h.buf[0].data = c.data[k:]
		h.buf[0].full = c.full
	}
	h.consumed(k)
	return k, err
}

// errInvalidWrite is a writer's report of more bytes than it was handed,
// or fewer than none.
var errInvalidWrite = errors.New("netsim: writer returned an invalid count")

// closeWrite marks the writer side done; readers drain then see EOF.
func (h *pipeHalf) closeWrite() {
	h.mu.Lock()
	h.wclosed = true
	h.mu.Unlock()
	signal(h.dataReady)
	signal(h.spaceFree)
}

// hardClose tears the direction down; pending and future reads fail.
func (h *pipeHalf) hardClose() {
	h.mu.Lock()
	h.wclosed = true
	h.dead = true
	for i := range h.buf {
		lease.Put(h.buf[i].full)
	}
	h.buf, h.queue = nil, nil
	h.trackQueue(-int64(h.buffered))
	h.buffered = 0
	h.mu.Unlock()
	h.deadOnce.Do(func() { close(h.deadCh) })
	signal(h.dataReady)
	signal(h.spaceFree)
}

func waitSignal(ch chan struct{}, deadline time.Time) error {
	if deadline.IsZero() {
		<-ch
		return nil
	}
	d := time.Until(deadline)
	if d <= 0 {
		return os.ErrDeadlineExceeded
	}
	t := leaseTimer(d)
	defer releaseTimer(t)
	select {
	case <-ch:
		return nil
	case <-t.C:
		return os.ErrDeadlineExceeded
	}
}

// Conn is one end of a simulated connection. It implements net.Conn.
type Conn struct {
	rd, wr     *pipeHalf
	local      net.Addr
	remote     net.Addr
	mu         sync.Mutex
	rdeadline  time.Time
	wdeadline  time.Time
	closedOnce sync.Once
	closed     atomic.Bool
	dropped    atomic.Bool // torn down by Abort (fault injection / reset)
	peer       *Conn
}

// newConnPair builds both ends of a connection crossing the given link.
// Each direction gets its own stream shaper (full-duplex link usage).
func newConnPair(lk *link, tr Transport, dialerAddr, listenerAddr net.Addr) (*Conn, *Conn) {
	aToB := newPipeHalf(lk.newStreamShaper(tr))
	bToA := newPipeHalf(lk.newStreamShaper(tr))
	a := &Conn{rd: bToA, wr: aToB, local: dialerAddr, remote: listenerAddr}
	b := &Conn{rd: aToB, wr: bToA, local: listenerAddr, remote: dialerAddr}
	a.peer, b.peer = b, a
	return a, b
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	n, err := c.rd.read(p, c.readDeadline())
	if err == io.EOF {
		return n, err
	}
	return n, c.opError("read", err)
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	n, err := c.wr.write(p, c.writeDeadline())
	return n, c.opError("write", err)
}

// WriteBuffers writes several slices as one wire operation — the
// simulated writev(2). PROT S's integrity frames use it to put a frame's
// header, payload and tag into a single shaped chunk instead of copying
// them together first.
func (c *Conn) WriteBuffers(bufs [][]byte) (int64, error) {
	n, err := c.wr.writev(bufs, c.writeDeadline())
	return int64(n), c.opError("writev", err)
}

// ReadFrom queues r's bytes straight into the send chunks, one copy, where
// a Write would take them from a buffer the caller filled first: the
// simulated sendfile(2). It takes a reader that states its length, an
// *io.LimitedReader (N is then an upper bound) or one with a Len method,
// and copies other readers through a buffer. Chunking, delivery times and
// pacing are Write's. A reader's own error ends the call unwrapped.
func (c *Conn) ReadFrom(r io.Reader) (int64, error) {
	var n int64
	switch r := r.(type) {
	case *io.LimitedReader:
		n = r.N
	case interface{ Len() int }:
		n = int64(r.Len())
	default:
		return io.Copy(writerOnly{c}, r)
	}
	var rerr error
	k, err := c.wr.send(int(max(n, 0)), func(dst []byte) (int, bool) {
		m, err := io.ReadFull(r, dst)
		if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
			rerr = err
		}
		return m, err == nil
	}, c.writeDeadline())
	if rerr != nil {
		return int64(k), rerr
	}
	return int64(k), c.opError("readfrom", err)
}

// writerOnly hides Conn's ReadFrom from io.Copy.
type writerOnly struct{ io.Writer }

// WriteTo hands each delivered chunk straight to w until EOF, one copy,
// where a Read would copy it into a buffer first: the simulated splice(2).
// Deadlines, EOF after CloseWrite and Abort behave as they do for Read. w
// writes outside the connection's lock, so its storage I/O holds up
// neither end. Bytes w does not take stay queued for the next Read or
// WriteTo, and w's own error ends the call unwrapped.
func (c *Conn) WriteTo(w io.Writer) (int64, error) {
	h := c.rd
	var total int64
	for {
		if err := h.arrived(c.readDeadline()); err != nil {
			if err == io.EOF {
				return total, nil
			}
			return total, c.opError("writeto", err)
		}
		n, err := h.lend(w)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
}

func (c *Conn) readDeadline() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rdeadline
}

func (c *Conn) writeDeadline() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wdeadline
}

// opError wraps a failure of the connection itself as *net.OpError does.
func (c *Conn) opError(op string, err error) error {
	if err == nil {
		return nil
	}
	return &net.OpError{Op: op, Net: "sim", Source: c.local, Addr: c.remote, Err: err}
}

// Close shuts down both directions of this end. The peer sees EOF after
// draining already-delivered data, like a TCP FIN.
func (c *Conn) Close() error {
	c.closedOnce.Do(func() {
		c.closed.Store(true)
		c.wr.closeWrite()
		c.rd.hardClose()
	})
	return nil
}

// CloseWrite half-closes the connection (TCP shutdown(SHUT_WR)): the peer
// reads EOF after the buffered data, while this end can still read. GridFTP
// stream mode uses this to signal end-of-file on data channels.
func (c *Conn) CloseWrite() error {
	c.wr.closeWrite()
	return nil
}

// Abort tears the connection down without draining, so the peer's pending
// reads fail immediately (a TCP RST). The fault-injection harness uses this
// to kill in-flight transfers.
func (c *Conn) Abort() {
	c.closed.Store(true)
	c.dropped.Store(true)
	c.wr.hardClose()
	c.rd.hardClose()
	if c.peer != nil {
		c.peer.dropped.Store(true)
		c.peer.rd.hardClose()
		c.peer.wr.hardClose()
	}
}

// WireStatus reports simulated wire-level health for this connection:
// the path RTT, the loss model's cumulative retransmitted segments for
// the send direction, whether the connection was reset by fault
// injection (drops), and a congestion-window estimate in segments
// derived from the effective stream cap. The stream-telemetry plane
// (internal/obs/streamstats) probes for this method, so simulated
// transfers produce the same per-stream wire series real TCP sockets do
// via TCP_INFO.
func (c *Conn) WireStatus() (rtt time.Duration, retransmits, drops, cwnd int64, ok bool) {
	rtt = 2 * c.wr.shaper.propagation()
	retransmits = c.wr.shaper.retransmitted()
	cwnd = c.wr.shaper.cwndSegments()
	if c.dropped.Load() {
		drops = 1
	}
	return rtt, retransmits, drops, cwnd, true
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdeadline, c.wdeadline = t, t
	c.mu.Unlock()
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.rdeadline = t
	c.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.wdeadline = t
	c.mu.Unlock()
	return nil
}
