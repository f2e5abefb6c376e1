package gridftp

import (
	"bytes"
	"io"
	"strings"
	"sync/atomic"
	"testing"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/netsim"
)

// shrinkingStorage opens every file as one that is cut to half its length
// once its first block has been read, as a concurrent STOR to the same path
// cuts a file under a running RETR.
type shrinkingStorage struct{ dsi.Storage }

func (s shrinkingStorage) Open(user, p string) (dsi.File, error) {
	f, err := s.Storage.Open(user, p)
	if err != nil {
		return nil, err
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
	var c *Client
	for _, mode := range []TransferMode{ModeExtended, ModeStream} {
		// A session of its own each: on one session, a MODE S GET after a
		// failed MODE E GET waits out the data-channel auth timeout, a fault
		// of its own.
		c = s.connect(t, nw.Host("laptop"), true)
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
