package gridftp

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/netsim"
)

// faultingStorage wraps a Storage and makes the next created/opened file
// fail its writes after a byte threshold — simulating a mid-transfer
// failure on the receiving end (disk error, node crash). Arm() re-arms it.
type faultingStorage struct {
	dsi.Storage
	mu        sync.Mutex
	armed     bool
	threshold int64
}

func (f *faultingStorage) Arm(threshold int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.armed = true
	f.threshold = threshold
}

func (f *faultingStorage) Create(user, p string) (dsi.File, error) {
	file, err := f.Storage.Create(user, p)
	if err != nil {
		return nil, err
	}
	return f.maybeWrap(file), nil
}

func (f *faultingStorage) Open(user, p string) (dsi.File, error) {
	file, err := f.Storage.Open(user, p)
	if err != nil {
		return nil, err
	}
	return f.maybeWrap(file), nil
}

func (f *faultingStorage) maybeWrap(file dsi.File) dsi.File {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.armed {
		return file
	}
	f.armed = false
	return &faultingFile{File: file, threshold: f.threshold}
}

type faultingFile struct {
	dsi.File
	mu        sync.Mutex
	written   int64
	threshold int64
}

var errInjected = errors.New("injected storage fault")

func (f *faultingFile) WriteAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	f.written += int64(len(p))
	tripped := f.written > f.threshold
	f.mu.Unlock()
	if tripped {
		return 0, errInjected
	}
	return f.File.WriteAt(p, off)
}

func TestRestartAfterInjectedFault(t *testing.T) {
	nw := netsim.NewNetwork()
	// Slow the link slightly so the transfer spans several markers.
	nw.SetLink("laptop", "siteA", netsim.LinkParams{
		Bandwidth: 8e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 20,
	})
	var faulty *faultingStorage
	s := newSite(t, nw, "siteA", func(cfg *ServerConfig) {
		faulty = &faultingStorage{Storage: cfg.Storage}
		cfg.Storage = faulty
		cfg.MarkerInterval = 20 * time.Millisecond
	})
	c := s.connect(t, nw.Host("laptop"), true)
	if err := c.SetMarkerInterval(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	payload := pattern(1 << 20)
	faulty.Arm(400_000) // fail after ~40% received

	var lastMarkers []Range
	c.OnMarker(func(rs []Range) { lastMarkers = rs })

	_, err := c.Put("/restart.bin", dsi.NewBufferFile(payload))
	if err == nil {
		t.Fatal("expected injected fault to fail the first attempt")
	}
	if len(lastMarkers) == 0 {
		t.Fatal("no restart markers collected before the fault")
	}
	already := FromRanges(lastMarkers).Covered()
	if already == 0 || already >= int64(len(payload)) {
		t.Fatalf("marker coverage %d implausible", already)
	}

	// Retry from the markers: only the missing bytes should move.
	c.SetRestart(lastMarkers)
	stats, err := c.Put("/restart.bin", dsi.NewBufferFile(payload))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes >= int64(len(payload)) {
		t.Fatalf("retry resent everything (%d bytes); restart markers unused", stats.Bytes)
	}
	if got := s.readFile(t, "/restart.bin"); !bytes.Equal(got, payload) {
		t.Fatal("content mismatch after restart")
	}
	t.Logf("first attempt delivered %d/%d bytes; retry moved %d", already, len(payload), stats.Bytes)
}

func TestAbortedDataConnectionFailsTransfer(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	payload := pattern(3 * DefaultBlockSize)

	// Deterministic fault: make the first put succeed, then abort the
	// pooled (cached) channels and verify the next transfer recovers by
	// opening fresh ones after the failure surfaces.
	if _, err := c.Put("/a.bin", dsi.NewBufferFile(payload)); err != nil {
		t.Fatal(err)
	}
	for _, ch := range c.data.pooledDialed {
		if nc, ok := ch.raw.(*netsim.Conn); ok {
			nc.Abort()
		}
	}
	// The next put over the dead cached channels fails...
	_, err := c.Put("/b.bin", dsi.NewBufferFile(payload))
	if err == nil {
		// Depending on protection level the write may not notice; accept
		// either, but content must be correct if it succeeded.
		if got := s.readFile(t, "/b.bin"); !bytes.Equal(got, payload) {
			t.Fatal("silent corruption after aborted channels")
		}
		return
	}
	// ...and the one after recovers with fresh channels.
	if _, err := c.Put("/c.bin", dsi.NewBufferFile(payload)); err != nil {
		t.Fatalf("recovery transfer failed: %v", err)
	}
	if got := s.readFile(t, "/c.bin"); !bytes.Equal(got, payload) {
		t.Fatal("content mismatch after recovery")
	}
}

// TestRefusedTransferDropsArmedRestart: REST applies to the command that
// follows it. When that command is refused, the ranges must not stay armed
// for the next transfer of the session, which would silently skip them.
func TestRefusedTransferDropsArmedRestart(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	payload := pattern(50000)
	s.putFile(t, "/ok", payload)

	c.SetRestart([]Range{{0, 20000}})
	if _, err := c.Get("/missing", dsi.NewBufferFile(nil)); err == nil {
		t.Fatal("RETR of a missing file succeeded")
	}
	got := dsi.NewBufferFile(nil)
	if _, err := c.Get("/ok", got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), payload) {
		t.Fatalf("the refused command's REST applied to the next RETR: %d bytes differ from the %d stored", len(got.Bytes()), len(payload))
	}
}
