// Package streamstats is the data-path X-ray of the Instant GridFTP
// reproduction: per-stream wire telemetry for every data connection of
// every transfer. The session/task-level planes (metrics, tsdb, the log)
// can say that *a transfer* is slow; this plane says *which of its
// streams* is stalled, lossy, or starved — the per-stream analysis that
// dominates parallel-transfer behavior in practice.
//
// A Registry tracks active transfers. The data path calls Begin per
// transfer and Wrap per data connection; the returned conn counts
// cumulative bytes, time blocked in Write, and the last-progress
// timestamp. A background poller derives an EWMA throughput per stream,
// polls wire-level counters (RTT, retransmits, cwnd) — from TCP_INFO on
// real Linux TCP sockets, or from the netsim limiter/loss injector on
// simulated connections. Health serves the per-stream table; the poller
// also sets the registry gauges the alert rules watch once the recorder
// has sampled them:
//
//	gridftp.streams.active          streams of active transfers
//	gridftp.streams.stalled         streams currently past the stall window
//	gridftp.streams.imbalance_pct   worst max/min stream-throughput ratio, in percent
//
// The poller doubles as the stall watchdog: a stream with no progress
// for the configured window is logged as stream.stalled and its transfer
// aborted, so the scheduler retries the file from its restart-marker
// checkpoint; progress or transfer end logs stream.recovered.
//
// Like the rest of internal/obs, a nil *Registry and a nil *Transfer are
// valid everywhere: all methods degrade to no-ops, so the data path never
// has to guard.
package streamstats

import (
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridftp.dev/instant/internal/obs"
)

// Registry gauges the poller sets for the alert rules.
const (
	StalledSeries   = "gridftp.streams.stalled"
	ImbalanceSeries = "gridftp.streams.imbalance_pct"
)

// WireInfo is a point-in-time snapshot of one stream's transport-level
// counters: from TCP_INFO on real sockets, from the limiter/loss injector
// on simulated ones.
type WireInfo struct {
	// RTT is the path round-trip time.
	RTT time.Duration
	// Retransmits is the cumulative count of retransmitted segments.
	Retransmits int64
	// Drops is the cumulative count of connection-level drops (aborts).
	Drops int64
	// CwndSegments is the current congestion/send window in segments.
	CwndSegments int64
}

// WireStatuser is implemented by connections that expose transport
// counters directly — netsim.Conn derives them from its shaper and loss
// model so simulated environments produce the same series real TCP does.
type WireStatuser interface {
	WireStatus() (rtt time.Duration, retransmits, drops, cwnd int64, ok bool)
}

// wireInfo extracts wire counters from a connection: a WireStatuser
// first (netsim), then a TCP_INFO poll via syscall.RawConn (Linux).
func wireInfo(c net.Conn) (WireInfo, bool) {
	if c == nil {
		return WireInfo{}, false
	}
	if ws, ok := c.(WireStatuser); ok {
		rtt, retrans, drops, cwnd, ok := ws.WireStatus()
		if ok {
			return WireInfo{RTT: rtt, Retransmits: retrans, Drops: drops, CwndSegments: cwnd}, true
		}
		return WireInfo{}, false
	}
	return sockWireInfo(c)
}

// Options configures a Registry.
type Options struct {
	// Obs receives the stall/recovery records and the gridftp.streams.*
	// gauges.
	Obs *obs.Obs
	// Interval is the poll/watchdog cadence, default 500ms; tests poll faster.
	Interval time.Duration
	// Stall is the no-progress window after which a stream is flagged
	// stalled and its transfer aborted, so the attempt fails fast and the
	// scheduler retries the file from its checkpoint instead of waiting
	// out the transfer. Zero disables the watchdog (telemetry still flows).
	Stall time.Duration
}

// retain is how many finished transfers Health keeps for /debug/streams.
const retain = 16

// ewmaAlpha is the throughput smoothing factor: the weight of the newest
// poll's rate in a stream's EWMA.
const ewmaAlpha = 0.3

// Registry tracks the streams of all active (and recently finished)
// transfers; its poller is also the stall watchdog.
type Registry struct {
	opts Options
	log  *slog.Logger

	mu     sync.Mutex
	seq    int64
	active []*Transfer
	recent []*Transfer // finished, newest last, bounded by retain
}

// New creates a Registry. Wrapped conns count bytes from the start; the
// rates, gauges, records and stall checks need the poller — Start, or poll
// driven by hand in tests.
func New(opts Options) *Registry {
	if opts.Interval <= 0 {
		opts.Interval = 500 * time.Millisecond
	}
	return &Registry{opts: opts, log: opts.Obs.Logger().With("component", "streamstats")}
}

// Start launches the poller/watchdog; the returned stop halts it
// (obs.Every's contract). Active transfers keep counting bytes after stop.
func (r *Registry) Start() (stop func()) {
	if r == nil {
		return func() {}
	}
	return obs.Every(r.opts.Interval, r.poll)
}

// Begin registers a transfer under the given label ("task-7", or a
// server-generated fallback) and verb ("retr", "stor", "get", "put").
// Safe on a nil Registry: returns a nil Transfer whose methods no-op.
func (r *Registry) Begin(label, verb string) *Transfer {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.seq++
	if label == "" {
		label = fmt.Sprintf("%s-%d", verb, r.seq)
	}
	t := &Transfer{reg: r, label: label, verb: verb, started: time.Now()}
	r.active = append(r.active, t)
	r.mu.Unlock()
	return t
}

// Transfer is the stream set of one data transfer.
type Transfer struct {
	reg     *Registry
	label   string
	verb    string
	started time.Time

	mu      sync.Mutex
	streams []*Stream
	abort   func()
	doneFlg bool
	doneAt  time.Time
	err     string

	stallAborted atomic.Bool
}

// Stream is the per-stream record: cumulative bytes, last-progress
// timestamp, time blocked inside Write, and the polled wire counters.
type Stream struct {
	idx     int
	bytes   atomic.Int64
	last    atomic.Int64 // unixnano of last byte of progress
	blocked atomic.Int64 // cumulative ns spent inside Write

	// mu guards the wire conn and the derived state below: written by
	// Wrap and the poller, read by Health snapshots.
	mu        sync.Mutex
	wire      net.Conn // conn polled for WireStatus / TCP_INFO
	prevBytes int64
	prevAt    time.Time
	ewma      float64
	stalled   bool
	wireOK    bool
	lastWire  WireInfo
}

// Wrap instruments conn as stream i of the transfer. payload is the
// connection the data blocks flow through (what gets wrapped); wire is
// the transport-level connection polled for RTT/retransmit counters —
// pass the raw conn when payload is a security wrapper, or the same conn
// when they coincide. Safe on a nil Transfer: returns payload unwrapped.
func (t *Transfer) Wrap(i int, payload, wire net.Conn) net.Conn {
	if t == nil || payload == nil {
		return payload
	}
	now := time.Now().UnixNano()
	t.mu.Lock()
	for i >= len(t.streams) {
		s := &Stream{idx: len(t.streams)}
		s.last.Store(now)
		t.streams = append(t.streams, s)
	}
	s := t.streams[i]
	t.mu.Unlock()
	s.mu.Lock()
	s.wire = wire
	s.mu.Unlock()
	sc := &streamConn{Conn: payload, s: s}
	// Capability-gated fast-path passthrough, in two sets: a conn that
	// moves bytes with no buffer of its own between the caller and the
	// wire (a netsim conn) has sendfile (io.ReaderFrom), splice
	// (io.WriterTo) and vectored writes (WriteBuffers), and the wrapper
	// forwards all three; a TCP socket's sendfile alone is forwarded
	// without them. The forwarding methods keep the byte/progress
	// counters honest — the MODE E fast path must never bypass stream
	// telemetry — and a plain conn is not dressed up as one that batches.
	rf, _ := payload.(io.ReaderFrom)
	wt, _ := payload.(io.WriterTo)
	bw, _ := payload.(buffersWriter)
	switch {
	case rf != nil && wt != nil && bw != nil:
		return &streamDirectConn{streamConn: sc, rf: rf, wt: wt, bw: bw}
	case rf != nil:
		return &streamReaderFromConn{streamConn: sc, rf: rf}
	}
	return sc
}

// buffersWriter matches the vectored-write capability
// (netsim.Conn.WriteBuffers) structurally, avoiding an import direction.
type buffersWriter interface {
	WriteBuffers(bufs [][]byte) (int64, error)
}

// SetAbort installs the function the stall watchdog calls (once) when a
// stream of this transfer stalls. It should tear down the transfer's data
// connections.
func (t *Transfer) SetAbort(fn func()) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.abort = fn
	t.mu.Unlock()
}

// StallAborted reports whether the watchdog aborted this transfer.
func (t *Transfer) StallAborted() bool {
	return t != nil && t.stallAborted.Load()
}

// Done marks the transfer finished; err is recorded in the health table.
// The transfer moves from the active set to the bounded recent ring.
func (t *Transfer) Done(err error) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.doneFlg {
		t.mu.Unlock()
		return
	}
	t.doneFlg = true
	t.doneAt = time.Now()
	if err != nil {
		t.err = err.Error()
	}
	t.mu.Unlock()

	r := t.reg
	r.mu.Lock()
	for i, a := range r.active {
		if a == t {
			r.active = append(r.active[:i], r.active[i+1:]...)
			break
		}
	}
	r.recent = append(r.recent, t)
	if len(r.recent) > retain {
		r.recent = r.recent[len(r.recent)-retain:]
	}
	r.mu.Unlock()
	t.finishStreams(r.log)
}

// streamConn is the instrumented connection: every byte in or out bumps
// the stream's counters and refreshes its last-progress timestamp, and
// Write time is accumulated as write-block time.
type streamConn struct {
	net.Conn
	s *Stream
}

func (c *streamConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.progress(int64(n))
	return n, err
}

func (c *streamConn) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.s.blocked.Add(int64(time.Since(start)))
	c.progress(int64(n))
	return n, err
}

// CloseWrite forwards half-close when the underlying transport supports
// it (MODE S signals EOF that way).
func (c *streamConn) CloseWrite() error {
	if hc, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return hc.CloseWrite()
	}
	return nil
}

// readFrom forwards io.ReaderFrom, accounting the moved bytes as write
// progress and the elapsed time as write-blocked time.
func (c *streamConn) readFrom(rf io.ReaderFrom, r io.Reader) (int64, error) {
	start := time.Now()
	n, err := rf.ReadFrom(r)
	c.s.blocked.Add(int64(time.Since(start)))
	c.progress(n)
	return n, err
}

// progress counts n moved bytes toward the stream.
func (c *streamConn) progress(n int64) {
	if n > 0 {
		c.s.bytes.Add(n)
		c.s.last.Store(time.Now().UnixNano())
	}
}

// streamReaderFromConn instruments a conn that supports io.ReaderFrom.
type streamReaderFromConn struct {
	*streamConn
	rf io.ReaderFrom
}

func (c *streamReaderFromConn) ReadFrom(r io.Reader) (int64, error) { return c.readFrom(c.rf, r) }

// streamDirectConn instruments a conn with all three fast paths.
type streamDirectConn struct {
	*streamConn
	rf io.ReaderFrom
	wt io.WriterTo
	bw buffersWriter
}

func (c *streamDirectConn) ReadFrom(r io.Reader) (int64, error) { return c.readFrom(c.rf, r) }

// WriteTo forwards io.WriterTo, counting the moved bytes as reads.
func (c *streamDirectConn) WriteTo(w io.Writer) (int64, error) {
	n, err := c.wt.WriteTo(w)
	c.progress(n)
	return n, err
}

// WriteBuffers forwards a vectored write with full accounting.
func (c *streamDirectConn) WriteBuffers(bufs [][]byte) (int64, error) {
	start := time.Now()
	n, err := c.bw.WriteBuffers(bufs)
	c.s.blocked.Add(int64(time.Since(start)))
	c.progress(n)
	return n, err
}

// poll is one pass: refresh throughput EWMAs and wire counters, set the
// gauges, and run the stall watchdog.
func (r *Registry) poll(now time.Time) {
	r.mu.Lock()
	transfers := append([]*Transfer(nil), r.active...)
	r.mu.Unlock()

	var stalledCount int64
	worstRatio := 1.0
	activeStreams := 0

	for _, t := range transfers {
		t.mu.Lock()
		streams := append([]*Stream(nil), t.streams...)
		abort := t.abort
		done := t.doneFlg
		t.mu.Unlock()
		if done {
			continue
		}

		minRate, maxRate := 0.0, 0.0
		rated := 0
		var stalledStream *Stream
		for _, s := range streams {
			activeStreams++
			b := s.bytes.Load()
			s.mu.Lock()
			wc := s.wire
			s.mu.Unlock()
			wi, wiOK := wireInfo(wc)

			s.mu.Lock()
			if !s.prevAt.IsZero() {
				dt := now.Sub(s.prevAt).Seconds()
				if dt > 0 {
					inst := float64(b-s.prevBytes) / dt
					s.ewma = ewmaAlpha*inst + (1-ewmaAlpha)*s.ewma
				}
			}
			s.prevBytes, s.prevAt = b, now
			if wiOK {
				s.lastWire, s.wireOK = wi, true
			}
			ewma := s.ewma

			// Watchdog: no progress since the stall window ago.
			newlyStalled, recovered := false, false
			var idle time.Duration
			if r.opts.Stall > 0 {
				idle = now.Sub(time.Unix(0, s.last.Load()))
				if idle > r.opts.Stall {
					if !s.stalled {
						s.stalled = true
						newlyStalled = true
					}
				} else if s.stalled {
					s.stalled = false
					recovered = true
				}
			}
			if s.stalled {
				stalledCount++
			}
			s.mu.Unlock()

			if ewma > 0 {
				if rated == 0 || ewma < minRate {
					minRate = ewma
				}
				if ewma > maxRate {
					maxRate = ewma
				}
				rated++
			}

			if newlyStalled {
				r.log.Warn("stream.stalled", "transfer", t.label, "verb", t.verb,
					"stream", s.idx, "idle_ms", idle.Milliseconds(), "bytes", b)
				stalledStream = s
			}
			if recovered {
				r.log.Info("stream.recovered", "transfer", t.label, "stream", s.idx, "reason", "progress")
			}
		}
		if rated >= 2 && minRate > 0 {
			if ratio := maxRate / minRate; ratio > worstRatio {
				worstRatio = ratio
			}
		}
		if stalledStream != nil && abort != nil && !t.stallAborted.Load() {
			t.stallAborted.Store(true)
			abort()
		}
	}

	reg := r.opts.Obs.Registry()
	reg.Gauge(StalledSeries).Set(stalledCount)
	// A stream whose rate decays toward zero drives the ratio without
	// bound; the gauge saturates rather than overflow int64.
	reg.Gauge(ImbalanceSeries).Set(int64(math.Min(math.Round(worstRatio*100), math.MaxInt32)))
	reg.Gauge("gridftp.streams.active").Set(int64(activeStreams))
}

// finishStreams logs stream.recovered for any still-stalled streams of
// a finished transfer, so every stream.stalled is eventually paired with
// a stream.recovered. The stalled *count* clears on its own: Done removes
// the transfer from the active set and the poller recomputes the gauge
// from scratch each pass.
func (t *Transfer) finishStreams(log *slog.Logger) {
	t.mu.Lock()
	streams := append([]*Stream(nil), t.streams...)
	t.mu.Unlock()
	for _, s := range streams {
		s.mu.Lock()
		wasStalled := s.stalled
		s.stalled = false
		s.mu.Unlock()
		if wasStalled {
			log.Info("stream.recovered", "transfer", t.label, "stream", s.idx, "reason", "closed")
		}
	}
}

// StreamHealth is one stream's row in the health table.
type StreamHealth struct {
	Index        int       `json:"index"`
	Bytes        int64     `json:"bytes"`
	Throughput   float64   `json:"throughput"`
	RTTMillis    float64   `json:"rtt_ms"`
	Retransmits  int64     `json:"retransmits"`
	Drops        int64     `json:"drops"`
	CwndSegments int64     `json:"cwnd_segments"`
	BlockedMs    float64   `json:"write_blocked_ms"`
	LastProgress time.Time `json:"last_progress"`
	Stalled      bool      `json:"stalled"`
}

// TransferHealth is one transfer's rows in the health table.
type TransferHealth struct {
	Label     string         `json:"label"`
	Verb      string         `json:"verb"`
	Started   time.Time      `json:"started"`
	Done      bool           `json:"done"`
	Error     string         `json:"error,omitempty"`
	Aborted   bool           `json:"stall_aborted,omitempty"`
	Imbalance float64        `json:"imbalance"`
	Streams   []StreamHealth `json:"streams"`
}

// Health snapshots every active transfer plus the retained finished ones,
// active first, each ordered oldest-first.
func (r *Registry) Health() []TransferHealth {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	transfers := append([]*Transfer(nil), r.active...)
	transfers = append(transfers, r.recent...)
	r.mu.Unlock()
	out := make([]TransferHealth, 0, len(transfers))
	for _, t := range transfers {
		out = append(out, t.health())
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Done != out[j].Done {
			return !out[i].Done
		}
		return out[i].Started.Before(out[j].Started)
	})
	return out
}

func (t *Transfer) health() TransferHealth {
	t.mu.Lock()
	th := TransferHealth{
		Label:   t.label,
		Verb:    t.verb,
		Started: t.started,
		Done:    t.doneFlg,
		Error:   t.err,
		Aborted: t.stallAborted.Load(),
	}
	streams := append([]*Stream(nil), t.streams...)
	t.mu.Unlock()
	minRate, maxRate := 0.0, 0.0
	rated := 0
	for _, s := range streams {
		s.mu.Lock()
		ewma, stalled, wireOK, lastWire := s.ewma, s.stalled, s.wireOK, s.lastWire
		s.mu.Unlock()
		sh := StreamHealth{
			Index:        s.idx,
			Bytes:        s.bytes.Load(),
			Throughput:   ewma,
			BlockedMs:    float64(s.blocked.Load()) / 1e6,
			LastProgress: time.Unix(0, s.last.Load()),
			Stalled:      stalled,
		}
		if wireOK {
			sh.RTTMillis = float64(lastWire.RTT.Microseconds()) / 1e3
			sh.Retransmits = lastWire.Retransmits
			sh.Drops = lastWire.Drops
			sh.CwndSegments = lastWire.CwndSegments
		}
		if ewma > 0 {
			if rated == 0 || ewma < minRate {
				minRate = ewma
			}
			if ewma > maxRate {
				maxRate = ewma
			}
			rated++
		}
		th.Streams = append(th.Streams, sh)
	}
	th.Imbalance = 1
	if rated >= 2 && minRate > 0 {
		th.Imbalance = maxRate / minRate
	}
	return th
}

// WireSummary aggregates a transfer set's wire evidence for the
// scheduler's per-attempt records.
type WireSummary struct {
	// Transfers is how many transfers matched the label prefix.
	Transfers int
	// Retransmits is the summed retransmit count across their streams.
	Retransmits int64
	// Imbalance is the worst max/min stream-throughput ratio observed.
	Imbalance float64
	// Stalls is how many transfers were aborted by the stall watchdog.
	Stalls int
}

// WireSummary aggregates every transfer whose label starts with prefix
// (a task id matches both its "task-N" destination and "task-N-src"
// source legs). ok is false when nothing matched.
func (r *Registry) WireSummary(prefix string) (WireSummary, bool) {
	if r == nil {
		return WireSummary{}, false
	}
	var ws WireSummary
	ws.Imbalance = 1
	for _, th := range r.Health() {
		if len(th.Label) < len(prefix) || th.Label[:len(prefix)] != prefix {
			continue
		}
		ws.Transfers++
		if th.Aborted {
			ws.Stalls++
		}
		if th.Imbalance > ws.Imbalance {
			ws.Imbalance = th.Imbalance
		}
		for _, sh := range th.Streams {
			ws.Retransmits += sh.Retransmits
		}
	}
	return ws, ws.Transfers > 0
}
