package netsim

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// maxBufferedBytes bounds how much written-but-unread data one direction of
// a connection may hold, modelling TCP flow control: a writer outpacing its
// reader eventually blocks.
const maxBufferedBytes = 8 << 20

// chunk is a span of bytes plus the simulated time at which it arrives at
// the receiver. full retains the original allocation so a fully consumed
// chunk's buffer can return to the pool even after partial reads advanced
// data.
type chunk struct {
	data []byte
	full []byte
	at   time.Time
}

// Chunk buffers are pooled by power-of-two size class (4 KiB .. 4 MiB):
// the E2 profile showed pipeHalf.write's per-chunk make([]byte, n) as a
// top allocator, and MODE E traffic reuses a handful of sizes heavily.
const (
	chunkClassMin  = 12 // 4 KiB
	chunkClassMax  = 22 // 4 MiB
	chunkClassBits = chunkClassMax - chunkClassMin + 1
)

var chunkPools [chunkClassBits]sync.Pool

// chunkBoxes holds the *[]byte a leaseChunk emptied, for a releaseChunk to
// refill: a slice put into a sync.Pool by the address of a fresh variable
// would cost a heap allocation per release.
var chunkBoxes sync.Pool

// chunkClass maps a byte count to (pool index, class capacity).
func chunkClass(n int) (int, int) {
	idx, size := 0, 1<<chunkClassMin
	for size < n && idx < chunkClassBits-1 {
		size <<= 1
		idx++
	}
	return idx, size
}

// leaseChunk returns an n-byte buffer, pooled when n fits a size class.
func leaseChunk(n int) []byte {
	if n > 1<<chunkClassMax {
		return make([]byte, n)
	}
	idx, size := chunkClass(n)
	if v := chunkPools[idx].Get(); v != nil {
		box := v.(*[]byte)
		b := (*box)[:n]
		*box = nil
		chunkBoxes.Put(box)
		return b
	}
	return make([]byte, n, size)
}

// releaseChunk recycles a buffer leased by leaseChunk; foreign capacities
// (oversize one-offs) are left to the GC.
func releaseChunk(b []byte) {
	c := cap(b)
	idx, size := chunkClass(c)
	if size != c {
		return
	}
	box, _ := chunkBoxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:size]
	chunkPools[idx].Put(box)
}

// pipeHalf is one direction of a connection: written by one end, read by
// the other. Delivery times are computed by the stream shaper at write time.
type pipeHalf struct {
	mu        sync.Mutex
	buf       []chunk // the queue: read pops its head, write appends
	queue     []chunk // buf's backing array, from its first slot
	buffered  int
	shaper    *streamShaper
	wclosed   bool          // writer called CloseWrite/Close
	dead      bool          // hard-closed; reads fail immediately
	dataReady chan struct{} // signalled when data or EOF becomes available
	spaceFree chan struct{} // signalled when buffer space frees up
	deadCh    chan struct{} // closed on hardClose; interrupts pacing sleeps
	deadOnce  sync.Once
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

// write appends p with a computed delivery time. It blocks (until deadline)
// while the buffer is full, and also while more than one round trip of the
// stream's bytes is booked and not yet transmitted, as a socket write blocks
// on a full send buffer: a back-to-back writer is paced at the link rate and
// keeps it busy, and a small write on an idle conn returns at once.
// Hysteresis: once the buffer fills, the writer waits for a meaningful
// amount of space before resuming, so steady-state chunks never degrade
// into slivers (which would make per-chunk costs dominate).
func (h *pipeHalf) write(p []byte, deadline time.Time) (int, error) {
	bufs := [1][][]byte{{p}}
	return h.writev(bufs[0], deadline)
}

// writev is the gather form of write: all slices land contiguously, so a
// MODE E [header, payload] pair becomes one chunk (one delivery-time
// computation, one pooled buffer) instead of two — the simulated
// equivalent of writev(2) on a TCP socket.
func (h *pipeHalf) writev(bufs [][]byte, deadline time.Time) (int, error) {
	remaining := 0
	for _, b := range bufs {
		remaining += len(b)
	}
	total := 0
	bi, bo := 0, 0 // gather cursor: buffer index, offset within it
	for remaining > 0 {
		want := remaining
		if want > maxBufferedBytes/4 {
			want = maxBufferedBytes / 4
		}
		h.mu.Lock()
		for maxBufferedBytes-h.buffered < want && !h.wclosed && !h.dead {
			h.mu.Unlock()
			if err := waitSignal(h.spaceFree, deadline); err != nil {
				return total, err
			}
			h.mu.Lock()
		}
		if h.wclosed || h.dead {
			h.mu.Unlock()
			return total, net.ErrClosed
		}
		n := remaining
		if room := maxBufferedBytes - h.buffered; n > room {
			n = room
		}
		now := time.Now()
		at := now
		if h.shaper != nil {
			at = h.shaper.deliveryTime(n, now)
		}
		data := leaseChunk(n)
		for m := 0; m < n; {
			k := copy(data[m:], bufs[bi][bo:])
			m += k
			bo += k
			if bo == len(bufs[bi]) {
				bi++
				bo = 0
			}
		}
		if len(h.buf) == cap(h.buf) && len(h.buf) < cap(h.queue) {
			// The popped head slots are free again: slide the queue back
			// to the front of its array rather than grow a new one.
			h.buf = h.queue[:copy(h.queue[:cap(h.queue)], h.buf)]
		}
		h.buf = append(h.buf, chunk{data: data, full: data, at: at})
		if cap(h.buf) > cap(h.queue) {
			h.queue = h.buf
		}
		h.buffered += n
		h.trackQueue(int64(n))
		h.mu.Unlock()
		signal(h.dataReady)
		total += n
		remaining -= n
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
				if !h.sleepUntil(sendDone) {
					return total, net.ErrClosed
				}
			}
		}
	}
	return total, nil
}

// read pops delivered bytes into p, blocking until data is available (and
// has arrived, per its delivery timestamp) or the writer side is closed.
func (h *pipeHalf) read(p []byte, deadline time.Time) (int, error) {
	for {
		h.mu.Lock()
		if h.dead {
			h.mu.Unlock()
			return 0, net.ErrClosed
		}
		if len(h.buf) > 0 {
			at := h.buf[0].at
			if wait := time.Until(at); wait > 0 {
				h.mu.Unlock()
				if !deadline.IsZero() && at.After(deadline) {
					h.sleepUntil(deadline)
					return 0, os.ErrDeadlineExceeded
				}
				if !h.sleepUntil(at) {
					return 0, net.ErrClosed
				}
				continue
			}
			// Coalesce: drain as many *delivered* chunks as fit in p, so
			// large reads are not limited to one chunk per call.
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
					releaseChunk(c.full)
					h.buf[0] = chunk{}
					h.buf = h.buf[1:]
				} else {
					c.data = c.data[m:]
				}
			}
			h.buffered -= n
			h.trackQueue(-int64(n))
			h.mu.Unlock()
			signal(h.spaceFree)
			return n, nil
		}
		if h.wclosed {
			h.mu.Unlock()
			return 0, io.EOF
		}
		h.mu.Unlock()
		if err := waitSignal(h.dataReady, deadline); err != nil {
			return 0, err
		}
	}
}

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
		releaseChunk(h.buf[i].full)
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
	c.mu.Lock()
	dl := c.rdeadline
	c.mu.Unlock()
	n, err := c.rd.read(p, dl)
	if err != nil && err != io.EOF {
		err = &net.OpError{Op: "read", Net: "sim", Source: c.local, Addr: c.remote, Err: err}
	}
	return n, err
}

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	dl := c.wdeadline
	c.mu.Unlock()
	n, err := c.wr.write(p, dl)
	if err != nil {
		err = &net.OpError{Op: "write", Net: "sim", Source: c.local, Addr: c.remote, Err: err}
	}
	return n, err
}

// WriteBuffers writes several slices as one wire operation — the
// simulated writev(2). The MODE E fast path uses it to put a block header
// and its payload (or a batch of small blocks) into a single shaped chunk
// instead of one per Write call.
func (c *Conn) WriteBuffers(bufs [][]byte) (int64, error) {
	c.mu.Lock()
	dl := c.wdeadline
	c.mu.Unlock()
	n, err := c.wr.writev(bufs, dl)
	if err != nil {
		err = &net.OpError{Op: "writev", Net: "sim", Source: c.local, Addr: c.remote, Err: err}
	}
	return int64(n), err
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
// derived from the effective stream cap. It implements the WireStatuser
// contract the stream-telemetry plane (internal/obs/streamstats) probes
// for, so simulated transfers produce the same per-stream wire series
// real TCP sockets do via TCP_INFO.
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
