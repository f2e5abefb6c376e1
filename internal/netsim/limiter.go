package netsim

import (
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// limiter is a virtual-finish-time rate limiter. reserve(n) returns the
// wall-clock time at which n bytes finish transmitting at the configured
// rate, serialized after all previously reserved bytes. Composing two
// limiters (per-stream and shared-link) by taking the max of their finish
// times models a stream that is capped individually while also sharing the
// link with its siblings.
type limiter struct {
	mu   sync.Mutex
	rate float64 // bytes per second; <= 0 means unlimited
	free time.Time
}

func newLimiter(rate float64) *limiter {
	return &limiter{rate: rate}
}

// reserve books n bytes and returns their transmission-finish time.
func (l *limiter) reserve(n int, now time.Time) time.Time {
	if l == nil {
		return now
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rate <= 0 {
		return now
	}
	start := l.free
	if start.Before(now) {
		start = now
	}
	dur := time.Duration(float64(n) / l.rate * float64(time.Second))
	l.free = start.Add(dur)
	return l.free
}

// setRate changes the limiter's rate and re-prices the outstanding
// backlog at it: the bytes still "on the wire" (free minus now, valued at
// the old rate) are rebooked at the new rate. Without this, a bandwidth
// collapse that queued minutes of virtual transmission would keep the
// cursor in the far future after the link heals, and new reservations —
// serialized behind it — would see a dead link long after recovery.
func (l *limiter) setRate(rate float64) {
	if l == nil {
		return
	}
	now := time.Now()
	l.mu.Lock()
	if l.rate > 0 && l.free.After(now) {
		if rate <= 0 {
			l.free = now
		} else {
			backlog := l.free.Sub(now).Seconds() * l.rate // bytes not yet sent
			l.free = now.Add(time.Duration(backlog / rate * float64(time.Second)))
		}
	}
	l.rate = rate
	l.mu.Unlock()
}

// linkStats holds the observability counters of one link. All fields are
// atomics: data-path goroutines update them without taking the link lock.
type linkStats struct {
	bytes    atomic.Int64 // bytes reserved for transmission (both directions)
	queue    atomic.Int64 // written-but-not-yet-read bytes currently queued
	maxQueue atomic.Int64 // high watermark of queue
	drops    atomic.Int64 // conns aborted by cuts + dials refused while down
	conns    atomic.Int64 // connections established
	retrans  atomic.Int64 // segments retransmitted (expected value under Loss)
}

// addQueue moves the queue depth by n and maintains the high watermark.
func (st *linkStats) addQueue(n int64) {
	q := st.queue.Add(n)
	for {
		m := st.maxQueue.Load()
		if q <= m || st.maxQueue.CompareAndSwap(m, q) {
			return
		}
	}
}

// LinkStats is a point-in-time snapshot of one link's counters.
type LinkStats struct {
	// Bytes is the total bytes transmitted across the link, both
	// directions combined.
	Bytes int64
	// QueueDepth is the written-but-not-yet-read bytes currently queued
	// on the link; MaxQueue is its high watermark.
	QueueDepth int64
	MaxQueue   int64
	// Drops counts connections aborted by CutLink plus dials refused
	// while the link was down.
	Drops int64
	// Conns is how many connections have been established over the link.
	Conns int64
	// Retransmits is the summed retransmitted-segment count across every
	// stream that crossed the link: the loss model's expected value
	// (segments x loss), accumulated deterministically at write time. It
	// equals the sum of the per-connection WireStatus counters.
	Retransmits int64
}

// link holds the shared shaping state for one host pair.
type link struct {
	shared *limiter // aggregate bandwidth shared by all streams
	stats  linkStats

	mu     sync.Mutex
	params LinkParams
	down   bool
	conns  []*Conn // live connections crossing this link
}

func newLink(p LinkParams) *link {
	l := &link{params: p}
	if p.Bandwidth > 0 {
		l.shared = newLimiter(p.Bandwidth)
	}
	return l
}

// getParams returns the link's current parameters.
func (l *link) getParams() LinkParams {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.params
}

// updateParams reshapes the link in place: live connections see the new
// bandwidth, RTT, loss rate, and window on their very next write. This is
// what makes SetLink a usable mid-transfer fault/loss injector.
func (l *link) updateParams(p LinkParams) {
	l.mu.Lock()
	l.params = p
	if p.Bandwidth > 0 && l.shared == nil {
		l.shared = newLimiter(p.Bandwidth)
	} else if l.shared != nil {
		l.shared.setRate(p.Bandwidth)
	}
	conns := append([]*Conn(nil), l.conns...)
	l.mu.Unlock()
	for _, c := range conns {
		c.wr.setParams(p)
		c.rd.setParams(p)
	}
}

// register tracks a connection for fault injection; it returns false when
// the link is down (dial must fail).
func (l *link) register(c *Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		l.stats.drops.Add(1)
		return false
	}
	l.stats.conns.Add(1)
	// Prune closed connections occasionally so long-lived links do not
	// accumulate dead entries.
	if len(l.conns) > 256 {
		live := l.conns[:0]
		for _, old := range l.conns {
			if !old.closed.Load() {
				live = append(live, old)
			}
		}
		l.conns = live
	}
	l.conns = append(l.conns, c)
	return true
}

// cut marks the link down and aborts every live connection on it.
func (l *link) cut() {
	l.mu.Lock()
	l.down = true
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		if !c.closed.Load() {
			l.stats.drops.Add(1)
		}
		c.Abort()
	}
}

// statsSnapshot reads the counters coherently enough for reporting.
func (l *link) statsSnapshot() LinkStats {
	return LinkStats{
		Bytes:       l.stats.bytes.Load(),
		QueueDepth:  l.stats.queue.Load(),
		MaxQueue:    l.stats.maxQueue.Load(),
		Drops:       l.stats.drops.Load(),
		Conns:       l.stats.conns.Load(),
		Retransmits: l.stats.retrans.Load(),
	}
}

// restore brings the link back up.
func (l *link) restore() {
	l.mu.Lock()
	l.down = false
	l.mu.Unlock()
}

func (l *link) isDown() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.down
}

// newStreamShaper creates the per-stream shaping state for a new connection
// crossing this link. TCP streams are capped at the window/Mathis bound;
// UDT (rate-based) streams see only the shared link bandwidth.
func (l *link) newStreamShaper(tr Transport) *streamShaper {
	p := l.getParams()
	s := &streamShaper{link: l, tr: tr}
	s.applyParams(p)
	return s
}

func isInf(f float64) bool { return f > 1e30 }

// streamShaper computes delivery times for one direction of one stream,
// accounts the loss model's retransmitted segments for that direction, and
// bounds what the direction may hold. Its parameters are mutable: the loss
// injector updates them mid-connection through setParams.
type streamShaper struct {
	link *link
	tr   Transport
	// bound is the direction's bufferBound. Every reserve reads it, so it
	// is an atomic rather than under mu.
	bound atomic.Int64

	mu      sync.Mutex
	stream  *limiter
	oneWay  time.Duration
	loss    float64
	mss     int
	credit  float64 // fractional retransmitted segments not yet counted
	retrans int64   // cumulative retransmitted segments (this direction)
}

// applyParams installs the per-stream cap, propagation delay, loss model
// and buffer bound implied by p. Callers must not hold s.mu.
func (s *streamShaper) applyParams(p LinkParams) {
	cap := p.StreamCap()
	s.bound.Store(int64(bufferBound(p, s.tr)))
	s.mu.Lock()
	s.oneWay = p.RTT / 2
	s.loss = p.Loss
	s.mss = p.mss()
	if s.tr == TransportUDT {
		// Rate-based transport: no per-stream window or loss cap.
		s.stream = nil
	} else if cap > 0 && !isInf(cap) {
		if s.stream == nil {
			s.stream = newLimiter(cap)
		} else {
			s.stream.setRate(cap)
		}
	} else {
		s.stream = nil
	}
	s.mu.Unlock()
}

// setParams is applyParams plus nil-safety for conns without shapers.
func (s *streamShaper) setParams(p LinkParams) {
	if s == nil {
		return
	}
	s.applyParams(p)
}

// propagation returns the current one-way latency.
func (s *streamShaper) propagation() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.oneWay
}

// retransmitted returns this direction's cumulative retransmit count.
func (s *streamShaper) retransmitted() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.retrans
}

// cwndSegments derives a congestion-window estimate in segments from the
// current effective stream cap (rate * RTT / MSS) — the window TCP would
// need to sustain that rate on this path.
func (s *streamShaper) cwndSegments() int64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stream == nil || s.oneWay <= 0 {
		return 0
	}
	s.stream.mu.Lock()
	rate := s.stream.rate
	s.stream.mu.Unlock()
	if rate <= 0 || s.mss <= 0 {
		return 0
	}
	rtt := 2 * s.oneWay
	return int64(math.Ceil(rate * rtt.Seconds() / float64(s.mss)))
}

// deliveryTime reserves n bytes on both the stream and the shared link and
// returns when the last byte arrives at the receiver. It also accrues the
// loss model's expected retransmitted segments (segments x loss) into the
// per-direction and per-link counters; the throughput cost of those
// retransmissions is already captured by the Mathis bound, so they are
// pure accounting here.
func (s *streamShaper) deliveryTime(n int, now time.Time) time.Time {
	s.mu.Lock()
	stream := s.stream
	oneWay := s.oneWay
	if s.loss > 0 && s.mss > 0 && n > 0 {
		segs := (n + s.mss - 1) / s.mss
		s.credit += float64(segs) * s.loss
		if k := int64(s.credit); k > 0 {
			s.credit -= float64(k)
			s.retrans += k
			if s.link != nil {
				s.link.stats.retrans.Add(k)
			}
		}
	}
	s.mu.Unlock()

	t := now
	if s.link != nil {
		s.link.stats.bytes.Add(int64(n))
	}
	if stream != nil {
		if ft := stream.reserve(n, now); ft.After(t) {
			t = ft
		}
	}
	if s.link != nil && s.link.shared != nil {
		if ft := s.link.shared.reserve(n, now); ft.After(t) {
			t = ft
		}
	}
	return t.Add(oneWay)
}
