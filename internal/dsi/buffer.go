package dsi

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// BufferFile is a standalone in-memory File, used by clients as a local
// source/sink for transfers without a full Storage behind it.
type BufferFile struct {
	mu   sync.RWMutex
	data []byte
}

// NewBufferFile wraps data (which is copied) in a File.
func NewBufferFile(data []byte) *BufferFile {
	cp := make([]byte, len(data))
	copy(cp, data)
	return &BufferFile{data: cp}
}

// ReadAt implements io.ReaderAt.
func (b *BufferFile) ReadAt(p []byte, off int64) (int, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return readAt(b.data, p, off)
}

// WriteAt implements io.WriterAt (writeAt).
func (b *BufferFile) WriteAt(p []byte, off int64) (n int, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.data, err = writeAt(b.data, p, off); err != nil {
		return 0, err
	}
	return len(p), nil
}

// Preallocate reserves capacity for size bytes without changing the
// logical length, so a transfer that announced its size up front (SIZE,
// ALLO, or the sender's 150 reply) lands block by block with zero
// grow-copies — the top allocator in the E2 profile.
func (b *BufferFile) Preallocate(size int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.data = preallocate(b.data, size)
}

// Size implements File.
func (b *BufferFile) Size() (int64, error) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return int64(len(b.data)), nil
}

// Close implements io.Closer.
func (b *BufferFile) Close() error { return nil }

// Bytes returns a copy of the current contents.
func (b *BufferFile) Bytes() []byte {
	b.mu.RLock()
	defer b.mu.RUnlock()
	cp := make([]byte, len(b.data))
	copy(cp, b.data)
	return cp
}

// maxMemBytes bounds an in-memory file, a BufferFile or a MemStorage file:
// 1 GiB, the largest the demos move. A write that would grow one past it is
// refused, so a peer's block offset cannot size an allocation.
const maxMemBytes = 1 << 30

var (
	errNegativeOffset = errors.New("dsi: negative offset")
	errTooLarge       = fmt.Errorf("dsi: an in-memory file holds at most %d bytes", maxMemBytes)
)

// readAt is ReadAt over an in-memory file's bytes.
func readAt(data, p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errNegativeOffset
	}
	if off >= int64(len(data)) {
		return 0, io.EOF
	}
	n := copy(p, data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// writeAt is WriteAt over an in-memory file's bytes: it returns data with p
// copied in at off, grown (sparse zero-fill) as needed — out-of-order MODE E
// blocks land wherever their offsets say. Growth is geometric so
// block-at-a-time extension stays linear overall. A negative offset is
// refused, as os.File.WriteAt refuses it, and so is growth past maxMemBytes;
// either way data comes back unchanged.
func writeAt(data, p []byte, off int64) ([]byte, error) {
	if off < 0 {
		return data, errNegativeOffset
	}
	if off > maxMemBytes-int64(len(p)) {
		return data, errTooLarge
	}
	end := off + int64(len(p))
	if end > int64(len(data)) {
		if end > int64(cap(data)) {
			grown := make([]byte, end, min(max(2*int64(cap(data)), end), maxMemBytes))
			copy(grown, data)
			data = grown
		} else {
			data = data[:end]
		}
	}
	copy(data[off:end], p)
	return data, nil
}

// preallocate returns data with capacity for size bytes, its length
// unchanged. A size past maxMemBytes is a hint no write could fill, and is
// ignored.
func preallocate(data []byte, size int64) []byte {
	if size <= int64(cap(data)) || size > maxMemBytes {
		return data
	}
	grown := make([]byte, len(data), size)
	copy(grown, data)
	return grown
}
