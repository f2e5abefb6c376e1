package gridftp

import (
	"strconv"
	"strings"
	"sync"
	"time"

	"gridftp.dev/instant/internal/ftp"
)

// This file implements the GridFTP performance-marker extension: during a
// MODE E transfer the server emits preliminary 112 replies on the control
// channel carrying per-stripe bytes-transferred, so a client (or the
// hosted transfer service, §VI) can watch a transfer's progress in flight
// instead of learning the total after the fact. Wire form follows the
// classic Globus rendering:
//
//	112-Perf Marker
//	 Timestamp: 1328000000.250
//	 Stripe Index: 0
//	 Stripe Bytes Transferred: 1048576
//	 Total Stripe Count: 2
//	112 End
//
// Each data stream of this implementation is one stripe: a striped server
// contributes one stream per stripe node, a parallel single-host transfer
// one per TCP stream.

// PerfMarker is one parsed 112 performance marker.
type PerfMarker struct {
	// Timestamp is when the sender sampled the counters.
	Timestamp time.Time
	// Stripe is the stripe (data stream) index this marker reports.
	Stripe int
	// StripeBytes is the cumulative bytes moved on that stripe.
	StripeBytes int64
	// TotalStripes is how many stripes the transfer uses.
	TotalStripes int
}

// perfMarkerLines renders the marker as reply lines for a multi-line 112
// reply (ftp.Conn.WriteReplies adds the code framing). The four lines that
// vary are cut from one string: two allocations a marker, not one a line — a
// transfer at 16 streams and a 50 ms cadence frames hundreds.
func perfMarkerLines(m PerfMarker) []string {
	var buf [160]byte
	b := append(buf[:0], "Timestamp: "...)
	b = strconv.AppendFloat(b, float64(m.Timestamp.UnixNano())/float64(time.Second), 'f', 3, 64)
	ts := len(b)
	b = strconv.AppendInt(append(b, "Stripe Index: "...), int64(m.Stripe), 10)
	index := len(b)
	b = strconv.AppendInt(append(b, "Stripe Bytes Transferred: "...), m.StripeBytes, 10)
	moved := len(b)
	b = strconv.AppendInt(append(b, "Total Stripe Count: "...), int64(m.TotalStripes), 10)
	s := string(b)
	return []string{"Perf Marker", s[:ts], s[ts:index], s[index:moved], s[moved:], "End"}
}

// maxStripeIndex bounds the stripe index / stripe count accepted from the
// wire. Markers are untrusted remote input and consumers index per-stripe
// accumulators by this value, so an absurd index must not translate into
// an absurd allocation.
const maxStripeIndex = 1 << 20

// maxPerfTimestamp is the largest epoch-seconds value the parser converts
// to a time.Time; beyond it the float64 * 1e9 nanosecond conversion would
// overflow int64 and produce a garbage (possibly negative) timestamp.
const maxPerfTimestamp = float64(1 << 33) // year ~2242

// ParsePerfMarker parses a 112 preliminary reply into a PerfMarker. ok is
// false for replies that are not performance markers, and for markers with
// out-of-range fields (negative byte counts, negative or absurdly large
// stripe indexes, non-finite timestamps): the values feed per-stripe
// accumulators, so range errors here would become panics or unbounded
// allocations downstream.
func ParsePerfMarker(r ftp.Reply) (PerfMarker, bool) {
	if r.Code != ftp.CodeRestartMarker+1 || len(r.Lines) == 0 ||
		!strings.HasPrefix(strings.TrimSpace(r.Lines[0]), "Perf Marker") {
		return PerfMarker{}, false
	}
	var m PerfMarker
	var gotStripe, gotBytes, gotCount bool
	for _, line := range r.Lines[1:] {
		key, val, found := strings.Cut(line, ":")
		if !found {
			continue
		}
		val = strings.TrimSpace(val)
		switch strings.TrimSpace(key) {
		case "Timestamp":
			if f, err := strconv.ParseFloat(val, 64); err == nil &&
				f >= 0 && f <= maxPerfTimestamp {
				m.Timestamp = time.Unix(0, int64(f*float64(time.Second)))
			}
		case "Stripe Index":
			if n, err := strconv.Atoi(val); err == nil && n >= 0 && n <= maxStripeIndex {
				m.Stripe = n
				gotStripe = true
			}
		case "Stripe Bytes Transferred":
			if n, err := strconv.ParseInt(val, 10, 64); err == nil && n >= 0 {
				m.StripeBytes = n
				gotBytes = true
			}
		case "Total Stripe Count":
			if n, err := strconv.Atoi(val); err == nil && n >= 0 && n <= maxStripeIndex {
				m.TotalStripes = n
				gotCount = true
			}
		}
	}
	return m, gotStripe && gotBytes && gotCount
}

// CodePerfMarker is the preliminary reply code for performance markers.
const CodePerfMarker = ftp.CodeRestartMarker + 1 // 112

// perfTracker accumulates per-stripe byte counts during a transfer. Data
// goroutines call add on every block; the session's marker goroutine frames
// what moved. The stripe set grows dynamically because MODE E receivers learn
// the stream count only from the EOF block.
type perfTracker struct {
	mu    sync.Mutex
	bytes []int64
	// framed is the snapshot frame last rendered from; only frame touches it.
	framed []int64
}

func (t *perfTracker) add(stripe int, n int64) {
	if t == nil || n <= 0 || stripe < 0 || stripe > maxStripeIndex {
		return
	}
	t.mu.Lock()
	for stripe >= len(t.bytes) {
		t.bytes = append(t.bytes, 0)
	}
	t.bytes[stripe] += n
	t.mu.Unlock()
}

// snapshot returns a copy of the per-stripe counters.
func (t *perfTracker) snapshot() []int64 {
	t.mu.Lock()
	out := append([]int64(nil), t.bytes...)
	t.mu.Unlock()
	return out
}

// total returns the sum across stripes.
func (t *perfTracker) total() int64 {
	var sum int64
	for _, b := range t.snapshot() {
		sum += b
	}
	return sum
}

// frame renders as 112 replies the stripes that moved since the last call —
// with closing set, every stripe that has carried bytes, so a transfer's last
// markers always carry the end totals. The set is one sample and carries one
// timestamp. Calls must not overlap (session.startMarkers orders them).
func (t *perfTracker) frame(closing bool) []ftp.Reply {
	cur := t.snapshot()
	now := time.Now()
	var set []ftp.Reply
	for i, b := range cur {
		moved := i >= len(t.framed) || t.framed[i] != b
		if b == 0 || !(moved || closing) {
			continue
		}
		if set == nil {
			set = make([]ftp.Reply, 0, len(cur))
		}
		set = append(set, ftp.Reply{Code: CodePerfMarker, Lines: perfMarkerLines(PerfMarker{
			Timestamp:    now,
			Stripe:       i,
			StripeBytes:  b,
			TotalStripes: len(cur),
		})})
	}
	t.framed = cur
	return set
}
