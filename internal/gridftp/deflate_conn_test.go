package gridftp

import (
	"bytes"
	"net"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/netsim"
)

func TestDeflateRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := newDeflateConn(a), newDeflateConn(b)

	payload := bytes.Repeat([]byte("instant gridftp deflate layer "), 4096)
	go func() {
		for off := 0; off < len(payload); off += 8192 {
			end := off + 8192
			if end > len(payload) {
				end = len(payload)
			}
			if _, err := ca.Write(payload[off:end]); err != nil {
				return
			}
		}
		ca.Close()
	}()

	got := make([]byte, 0, len(payload))
	buf := make([]byte, 4096)
	for len(got) < len(payload) {
		n, err := cb.Read(buf)
		got = append(got, buf[:n]...)
		if err != nil {
			break
		}
	}
	cb.Close()
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip corrupted: got %d bytes, want %d", len(got), len(payload))
	}
}

// TestDeflateStreamSurvivesReuse models channel caching: several transfers
// over the same wrapped connection pair — the DEFLATE stream must stay
// decodable across the reuse boundary.
func TestDeflateStreamSurvivesReuse(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := newDeflateConn(a), newDeflateConn(b)
	defer ca.Close()
	defer cb.Close()

	for round := 0; round < 3; round++ {
		msg := bytes.Repeat([]byte{byte('A' + round)}, 1000)
		errCh := make(chan error, 1)
		go func() {
			_, err := ca.Write(msg)
			errCh <- err
		}()
		got := make([]byte, 0, len(msg))
		buf := make([]byte, 512)
		for len(got) < len(msg) {
			cb.SetReadDeadline(time.Now().Add(5 * time.Second))
			n, err := cb.Read(buf)
			got = append(got, buf[:n]...)
			if err != nil {
				t.Fatalf("round %d: read: %v", round, err)
			}
		}
		if err := <-errCh; err != nil {
			t.Fatalf("round %d: write: %v", round, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round %d corrupted", round)
		}
	}
}

// BenchmarkDeflateConnPooled prices one data connection's worth of
// compressor turnover — the lots-of-small-files shape, where channel
// turnover is the workload — with the flate.Writer drawn from the pool.
// Constructing one per connection instead (~1.2 MB of window/hash state)
// is what the pool avoids; PR 8, which introduced it, recorded the
// pooled-vs-unpooled pair (README.md here, "DEFLATE data-channel
// compression").
func BenchmarkDeflateConnPooled(b *testing.B) {
	block := bytes.Repeat([]byte("gridftp"), 1024) // 7 KiB, compressible
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn := newDeflateConn(discardConn{})
		if _, err := conn.Write(block); err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
}

// TestChannelCloseRefillsFlatePools: MODE E channels are closed through
// their transport (dataChannel.close), and that close has to hand the
// deflate layer's compressor back — with the channel cache off every
// transfer opens new channels, and constructing a flate.Writer for each
// (~1.2 MB of window and hash state) is exactly what the pool exists to
// avoid. First the turnover itself, in the shape of
// BenchmarkDeflateConnPooled; then the real path: "OPTS RETR Deflate=1;"
// with the cache off at both ends, where the second and later transfers
// must construct no writer.
func TestChannelCloseRefillsFlatePools(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// No collection while pool hits are being counted: a GC cycle empties
	// sync.Pools.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// One P for the whole test, warm-up included. A sync.Pool keeps the last
	// Put in the private slot of the P it ran on, and no other P ever takes
	// from there; testing.AllocsPerRun sets GOMAXPROCS(1) itself, so a
	// warm-up that ran on another P left its writer where the counted rounds
	// cannot reach it, and the first of them constructed one — most runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var constructed atomic.Int64
	construct := flateWriters.New
	flateWriters.New = func() any { constructed.Add(1); return construct() }
	defer func() { flateWriters.New = construct }()

	block := bytes.Repeat([]byte("gridftp"), 1024)
	turnover := func() {
		ch := &dataChannel{raw: discardConn{}, sec: newDeflateConn(discardConn{})}
		if _, err := ch.sec.Write(block); err != nil {
			t.Fatal(err)
		}
		ch.close(false)
	}
	turnover() // at most this one constructs
	constructed.Store(0)
	if allocs := testing.AllocsPerRun(50, turnover); constructed.Load() != 0 || allocs > 4 {
		t.Fatalf("channel turnover constructed %d flate.Writers in 51 rounds (%.0f allocs each): close does not refill the pool",
			constructed.Load(), allocs)
	}

	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA", func(cfg *ServerConfig) { cfg.DisableChannelCache = true })
	proxy := s.connect(t, nw.Host("laptop"), false).cred
	c, err := DialWithOptions(nw.Host("laptop"), s.addr, proxy, s.trust, DialOptions{DisableChannelCache: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Delegate(time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := c.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	if err := c.SetDeflate(true); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("compressible gridftp payload "), 4000)
	round := func(i int) {
		if _, err := c.Put("/z.bin", dsi.NewBufferFile(payload)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		got := dsi.NewBufferFile(nil)
		if _, err := c.Get("/z.bin", got); err != nil || !bytes.Equal(got.Bytes(), payload) {
			t.Fatalf("get %d: err=%v, %d bytes", i, err, len(got.Bytes()))
		}
	}
	round(0)
	constructed.Store(0)
	for i := 1; i <= 3; i++ {
		round(i)
	}
	if n := constructed.Load(); n != 0 {
		t.Fatalf("transfers 2-4 with the channel cache off constructed %d flate.Writers, want 0", n)
	}
}
