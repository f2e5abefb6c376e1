// Package streamstats is the data-path X-ray of the Instant GridFTP
// reproduction: per-stream wire telemetry for every data connection of
// every transfer. The session/task-level planes (metrics, tsdb, the log)
// can say that *a transfer* is slow; this plane says *which of its
// streams* is stalled, lossy, or starved — the per-stream analysis that
// dominates parallel-transfer behavior in practice.
//
// A Registry tracks active transfers. The data path calls Begin per
// transfer and Stream per data connection, and its MODE E block loops Tell
// the transfer what each block of a stream moved: payload bytes, the time
// the send call took, and with them the last-progress timestamp. Nothing
// sits between the data path and its conns, so whatever a conn can do
// reaches the engine as it is. A background poller derives an EWMA
// throughput per stream, polls wire-level counters (RTT, retransmits,
// cwnd) — from TCP_INFO on real Linux TCP sockets, or from the netsim
// limiter/loss injector on simulated connections. Health serves the
// per-stream table; the poller also sets the registry gauges the alert
// rules watch once the recorder has sampled them:
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

// wireStatuser is implemented by connections that expose transport
// counters directly — netsim.Conn derives them from its shaper and loss
// model so simulated environments produce the same series real TCP does.
type wireStatuser interface {
	WireStatus() (rtt time.Duration, retransmits, drops, cwnd int64, ok bool)
}

// wireInfo extracts wire counters from a connection: a wireStatuser
// first (netsim), then a TCP_INFO poll via syscall.RawConn (Linux).
func wireInfo(c net.Conn) (WireInfo, bool) {
	if c == nil {
		return WireInfo{}, false
	}
	if ws, ok := c.(wireStatuser); ok {
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
	// out the transfer. Progress is a block told, so the window has to
	// outlast one block on the slowest stream that is still healthy. Zero
	// disables the watchdog (telemetry still flows).
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

// New creates a Registry. Told blocks count from the start; the rates,
// gauges, records and stall checks need the poller — Start, or poll driven
// by hand in tests.
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

// Stream is the per-stream record: cumulative payload bytes, last-progress
// timestamp, time blocked in send calls, and the polled wire counters.
type Stream struct {
	idx     int
	bytes   atomic.Int64
	last    atomic.Int64 // unixnano of the last block told
	blocked atomic.Int64 // cumulative ns spent in send calls

	// mu guards the wire conn and the derived state below: written by
	// Transfer.Stream and the poller, read by Health snapshots.
	mu        sync.Mutex
	wire      net.Conn // conn polled for WireStatus / TCP_INFO
	prevBytes int64
	prevAt    time.Time
	ewma      float64
	stalled   bool
	wireOK    bool
	lastWire  WireInfo
}

// Stream registers stream i of the transfer. wire is the transport conn
// the poller reads wire counters from (WireStatus on netsim, TCP_INFO on a
// socket): the raw conn under any security layer, which has none of its
// own. The stream's block loop then tells the transfer what each block
// moved (Tell). Safe on a nil Transfer: registers nothing.
func (t *Transfer) Stream(i int, wire net.Conn) {
	if t == nil {
		return
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
}

// Tell records one block of stream i: n payload bytes (zero for a control
// block) and took, how long the block's send call took (zero on a receive),
// which accumulates as write-blocked time. Every block refreshes the
// stream's last progress, so the watchdog sees a stream whose blocks keep
// coming, payload or not. Safe on a nil Transfer and for a stream never
// registered.
func (t *Transfer) Tell(i int, n int64, took time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	var s *Stream
	if i < len(t.streams) {
		s = t.streams[i]
	}
	t.mu.Unlock()
	if s == nil {
		return
	}
	s.bytes.Add(n)
	s.blocked.Add(int64(took))
	s.last.Store(time.Now().UnixNano())
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
