package gridftp

import (
	"bytes"
	"net"
	"testing"
	"time"
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
