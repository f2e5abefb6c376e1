package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
)

// splitmix is the seeded generator every input comes from: the same seed
// gives the same bytes and the same file sizes, and the program under test
// only ever sees what it produced.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// payload returns n pseudo-random bytes for (seed, stream): incompressible,
// and different at every offset so a misplaced block cannot verify.
func payload(seed int64, stream uint64, n int) []byte {
	g := splitmix(uint64(seed)*0x9e3779b97f4a7c15 ^ stream*0xd1342543de82ef95)
	buf := make([]byte, n)
	i := 0
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(buf[i:], g.next())
	}
	if i < n {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], g.next())
		copy(buf[i:], tail[:])
	}
	return buf
}

// hostedSizes returns count file sizes log-uniform over [lo, hi]: one draw
// per equal-log-width stratum, placed inside the stratum and then shuffled
// by the seed. Stratifying keeps the directory's total within about a
// percent from seed to seed, so goodput compares across seeds, while which
// file has which size — and every byte — still comes from the seed.
func hostedSizes(seed int64, count, lo, hi int) []int {
	g := splitmix(uint64(seed) ^ 0x5bd1e995)
	sizes := make([]int, count)
	ratio := math.Log(float64(hi) / float64(lo))
	for i := range sizes {
		u := (float64(i) + g.float()) / float64(count)
		sizes[i] = int(float64(lo) * math.Exp(u*ratio))
	}
	for i := count - 1; i > 0; i-- {
		j := int(g.next() % uint64(i+1))
		sizes[i], sizes[j] = sizes[j], sizes[i]
	}
	return sizes
}

// memFile is the load generator's local dsi.File: a source over a generated
// payload, or a reusable destination that is wiped before every GET so it
// cannot hold the expected bytes before the op writes them. It keeps the
// client side of a transfer free of per-op payload-sized allocations, which
// would otherwise be most of what a CPU-bound op measures.
type memFile struct {
	mu   sync.Mutex
	data []byte // capacity is fixed at construction
	size int64  // logical length: high-water mark of writes
}

func sourceFile(data []byte) *memFile { return &memFile{data: data, size: int64(len(data))} }

func sinkFile(capacity int) *memFile { return &memFile{data: make([]byte, capacity)} }

// wipe zeroes the sink and resets its length.
func (f *memFile) wipe() {
	f.mu.Lock()
	clear(f.data)
	f.size = 0
	f.mu.Unlock()
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.Lock()
	size := f.size
	f.mu.Unlock()
	if off >= size {
		return 0, io.EOF
	}
	n := copy(p, f.data[off:size])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt copies outside the lock: MODE E streams write disjoint ranges.
func (f *memFile) WriteAt(p []byte, off int64) (int, error) {
	end := off + int64(len(p))
	if off < 0 || end > int64(len(f.data)) {
		return 0, fmt.Errorf("bench: write [%d,%d) outside the %d-byte sink", off, end, len(f.data))
	}
	copy(f.data[off:end], p)
	f.mu.Lock()
	if end > f.size {
		f.size = end
	}
	f.mu.Unlock()
	return len(p), nil
}

func (f *memFile) Size() (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.size, nil
}

func (f *memFile) Close() error { return nil }

// verify compares what the sink received with the expected payload.
func (f *memFile) verify(want []byte) error {
	f.mu.Lock()
	got := f.data[:f.size]
	f.mu.Unlock()
	return sameBytes(got, want)
}

func sameBytes(got, want []byte) error {
	if len(got) != len(want) {
		return fmt.Errorf("verification: got %d bytes, want %d", len(got), len(want))
	}
	if !bytes.Equal(got, want) {
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("verification: first differing byte at offset %d of %d", i, len(want))
			}
		}
	}
	return nil
}
