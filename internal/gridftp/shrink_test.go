package gridftp

import (
	"bytes"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

// shrinkingStorage opens every file whose path names "shrinks" as one that
// is cut to half its length once its first block has been read, as a
// concurrent STOR to the same path cuts a file under a running RETR.
type shrinkingStorage struct{ dsi.Storage }

func (s shrinkingStorage) Open(user, p string) (dsi.File, error) {
	f, err := s.Storage.Open(user, p)
	if err != nil || !strings.Contains(p, "shrinks") {
		return f, err
	}
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	return &shrinkingFile{File: f, cut: size / 2}, nil
}

type shrinkingFile struct {
	dsi.File
	cut   int64
	reads atomic.Int32
}

func (f *shrinkingFile) shrunk() bool { return f.reads.Load() > 0 }

func (f *shrinkingFile) Size() (int64, error) {
	if f.shrunk() {
		return f.cut, nil
	}
	return f.File.Size()
}

func (f *shrinkingFile) ReadAt(p []byte, off int64) (int, error) {
	if f.reads.Add(1) == 1 {
		return f.File.ReadAt(p, off)
	}
	if off >= f.cut {
		return 0, io.EOF
	}
	n, err := f.File.ReadAt(p[:min(int64(len(p)), f.cut-off)], off)
	if err == nil && n < len(p) {
		err = io.EOF
	}
	return n, err
}

// TestShrinkingFileFailsItsTransfer: a file that shrinks while it is sent
// fails its RETR, in MODE E and MODE S, and its CKSM, instead of answering
// success over a pooled buffer's stale bytes.
func TestShrinkingFileFailsItsTransfer(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA", func(cfg *ServerConfig) { cfg.Storage = shrinkingStorage{cfg.Storage} })
	payload := pattern(4 * DefaultBlockSize)
	s.putFile(t, "/shrinks.bin", payload)
	c := s.connect(t, nw.Host("laptop"), true)
	for _, mode := range []TransferMode{ModeExtended, ModeStream} {
		if err := c.SetMode(mode); err != nil {
			t.Fatal(err)
		}
		if mode == ModeExtended {
			if err := c.SetParallelism(2); err != nil {
				t.Fatal(err)
			}
		}
		dst := dsi.NewBufferFile(nil)
		_, err := c.Get("/shrinks.bin", dst)
		if err == nil {
			same := bytes.Equal(dst.Bytes(), payload[:len(dst.Bytes())])
			t.Errorf("MODE %c: a RETR of a file that shrank mid-send succeeded (%d bytes, a prefix of the file: %v)", mode, len(dst.Bytes()), same)
		} else if !strings.Contains(err.Error(), "426") {
			t.Errorf("MODE %c: err = %v, want the server's 426", mode, err)
		}
	}
	if sum, err := c.Checksum("MD5", "/shrinks.bin", 0, -1); err == nil {
		t.Errorf("CKSM of a file that shrank while it was hashed answered %s", sum)
	}
	if err := c.Noop(); err != nil {
		t.Fatalf("the session did not survive: %v", err)
	}
}

// TestStreamGetAfterAFailedExtendedGet: on one session, a MODE S GET after a
// two-stream MODE E GET the server failed with a 426 succeeds, well inside
// the data-channel wait; so does one after an OPTS RETR Parallelism=3 in
// MODE S, and a MODE E GET after them. The server once kept its two streams
// in MODE S and dialled both for the one the client accepts; the second
// waited out its DCAU handshake and the GET was answered 425 after 30 s.
func TestStreamGetAfterAFailedExtendedGet(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA", func(cfg *ServerConfig) { cfg.Storage = shrinkingStorage{cfg.Storage} })
	s.putFile(t, "/shrinks.bin", pattern(4*DefaultBlockSize))
	healthy := pattern(1000)
	s.putFile(t, "/healthy.bin", healthy)
	c := s.connect(t, nw.Host("laptop"), true)
	if err := c.SetParallelism(2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("/shrinks.bin", dsi.NewBufferFile(nil)); err == nil || !strings.Contains(err.Error(), "426") {
		t.Fatalf("MODE E GET of a shrinking file: %v, want the server's 426", err)
	}
	if err := c.SetMode(ModeStream); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	dst := dsi.NewBufferFile(nil)
	if _, err := c.Get("/healthy.bin", dst); err != nil {
		t.Fatalf("MODE S GET after the failed MODE E GET (%v): %v", time.Since(start), err)
	}
	if took := time.Since(start); took > defaultDataWait/4 {
		t.Errorf("MODE S GET after the failed MODE E GET took %v", took)
	}
	if !bytes.Equal(dst.Bytes(), healthy) {
		t.Fatal("MODE S GET after the failed MODE E GET: bytes differ")
	}
	// A parallelism set in MODE S leaves it one stream at both ends.
	if err := c.SetParallelism(3); err != nil {
		t.Fatal(err)
	}
	start = time.Now()
	dst = dsi.NewBufferFile(nil)
	if _, err := c.Get("/healthy.bin", dst); err != nil || !bytes.Equal(dst.Bytes(), healthy) {
		t.Fatalf("MODE S GET after OPTS RETR Parallelism=3 (%v): %v", time.Since(start), err)
	}
	// Back in MODE E, both ends agree on the streams again.
	if err := c.SetMode(ModeExtended); err != nil {
		t.Fatal(err)
	}
	dst = dsi.NewBufferFile(nil)
	if _, err := c.Get("/healthy.bin", dst); err != nil || !bytes.Equal(dst.Bytes(), healthy) {
		t.Fatalf("MODE E GET after the MODE S GET: %v", err)
	}
}

// TestParallelismSurvivesAStreamModeRoundTrip: after SetParallelism(2), a
// MODE S GET and a return to MODE E, the next GET runs two streams at both
// ends without another OPTS: the server dials two data connections and the
// client takes both.
func TestParallelismSurvivesAStreamModeRoundTrip(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	payload := pattern(4 * DefaultBlockSize)
	s.putFile(t, "/f.bin", payload)
	proxy, err := gsi.NewProxy(s.user, gsi.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialWithOptions(nw.Host("laptop"), s.addr, proxy, s.trust, DialOptions{Obs: obs.Nop()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, err := range []error{c.Delegate(time.Hour), c.SetParallelism(2), c.SetMode(ModeStream)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	get := func(what string) {
		dst := dsi.NewBufferFile(nil)
		if _, err := c.Get("/f.bin", dst); err != nil || !bytes.Equal(dst.Bytes(), payload) {
			t.Fatalf("%s: %v", what, err)
		}
	}
	get("MODE S GET")
	if err := c.SetMode(ModeExtended); err != nil {
		t.Fatal(err)
	}
	opts, conns := sent(c, "OPTS"), nw.LinkStats("laptop", "siteA").Conns
	get("MODE E GET after the MODE S GET")
	if got := nw.LinkStats("laptop", "siteA").Conns - conns; got != 2 {
		t.Errorf("the MODE E GET opened %d data connections, want the 2 SetParallelism negotiated", got)
	}
	if got := sent(c, "OPTS") - opts; got != 0 {
		t.Errorf("the MODE E GET sent %d OPTS, want none", got)
	}
}
