package gridftp

import (
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/ftp"
)

// FuzzParsePerfMarker throws arbitrary multi-line reply bodies at the 112
// performance-marker parser. The marker is untrusted remote input (any
// server a client connects to can emit one), so the parser must never
// panic and must never hand downstream consumers values that would: a
// negative stripe index panics the per-stripe accumulator, a huge one
// turns into an unbounded allocation, and an out-of-range timestamp
// overflows the nanosecond conversion.
func FuzzParsePerfMarker(f *testing.F) {
	f.Add("Perf Marker\n Timestamp: 1328000000.250\n Stripe Index: 0\n Stripe Bytes Transferred: 1048576\n Total Stripe Count: 2\n112 End")
	f.Add("Perf Marker\n Stripe Index: -1\n Stripe Bytes Transferred: 10\n Total Stripe Count: 1\nEnd")
	f.Add("Perf Marker\n Timestamp: 9e300\n Stripe Index: 1\n Stripe Bytes Transferred: 1\n Total Stripe Count: 1\nEnd")
	f.Add("Perf Marker\n Timestamp: NaN\n Stripe Index: 999999999999\n Stripe Bytes Transferred: -5\n Total Stripe Count: 0\nEnd")
	f.Add("Perf Marker")
	f.Add("not a marker at all")
	f.Add("Perf Marker\nStripe Index:: 1\n: 2\nTimestamp: -3.5")
	// A closing flight as it arrives since it became one segment — markers
	// back to back, the 226 behind them — read as if it were one reply's body.
	f.Add("Perf Marker\n Timestamp: 1328000000.250\n Stripe Index: 0\n Stripe Bytes Transferred: 1048576\n Total Stripe Count: 2\n112 End\r\n" +
		"112-Perf Marker\n Timestamp: 1328000000.250\n Stripe Index: 1\n Stripe Bytes Transferred: 1048576\n Total Stripe Count: 2\n112 End\r\n226 Transfer complete\r")

	f.Fuzz(func(t *testing.T, body string) {
		r := ftp.Reply{Code: CodePerfMarker, Lines: strings.Split(body, "\n")}
		m, ok := ParsePerfMarker(r)
		if !ok {
			return
		}
		if m.Stripe < 0 || m.Stripe > maxStripeIndex {
			t.Fatalf("accepted out-of-range stripe index %d", m.Stripe)
		}
		if m.TotalStripes < 0 || m.TotalStripes > maxStripeIndex {
			t.Fatalf("accepted out-of-range stripe count %d", m.TotalStripes)
		}
		if m.StripeBytes < 0 {
			t.Fatalf("accepted negative stripe bytes %d", m.StripeBytes)
		}
		if !m.Timestamp.IsZero() &&
			(m.Timestamp.Before(time.Unix(0, 0)) || m.Timestamp.Year() > 2300) {
			t.Fatalf("accepted out-of-range timestamp %v", m.Timestamp)
		}
		// Accepted markers must be safe to feed into the accumulator the
		// way OnPerf consumers do.
		var tr perfTracker
		tr.add(m.Stripe, m.StripeBytes)
		if got := tr.total(); got != m.StripeBytes {
			t.Fatalf("tracker total %d after adding %d", got, m.StripeBytes)
		}
	})
}
