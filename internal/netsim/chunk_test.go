package netsim

import (
	"math/bits"
	"testing"
	"time"
)

// TestChunkClasses checks chunkClass over every byte count a pooled chunk
// can hold: the class holds n, a released chunk of the class goes back to
// the pool it came from, a power of two plus up to a sixteenth of it is held
// within 17/16 of its size, and no class is larger than the power-of-two
// class the pools had before the second class per octave.
func TestChunkClasses(t *testing.T) {
	seen := map[int]int{} // capacity -> pool index
	for n := 1; n <= 1<<chunkClassMax; n++ {
		idx, size := chunkClass(n)
		if size < n {
			t.Fatalf("chunkClass(%d) = %d bytes, which does not hold it", n, size)
		}
		if idx < 0 || idx >= chunkClasses {
			t.Fatalf("chunkClass(%d) = pool %d of %d", n, idx, chunkClasses)
		}
		if back, bsize := chunkClass(size); back != idx || bsize != size {
			t.Fatalf("a %d-byte chunk of pool %d releases to pool %d (%d bytes)", size, idx, back, bsize)
		}
		if prev, ok := seen[size]; ok && prev != idx {
			t.Fatalf("capacity %d maps to pools %d and %d", size, prev, idx)
		}
		seen[size] = idx
		pow := max(1<<chunkClassMin, 1<<bits.Len(uint(n-1)))
		if size > pow {
			t.Fatalf("chunkClass(%d) = %d bytes, more than the power-of-two class %d", n, size, pow)
		}
		if n > 1<<chunkClassMin {
			k := bits.Len(uint(n-1)) - 1
			if h := n - 1<<k; h <= 1<<(k-4) && size*16 > n*17 {
				t.Fatalf("chunkClass(%d) = %d bytes, more than 17/16 of it", n, size)
			}
		}
	}
	if len(seen) != chunkClasses {
		t.Fatalf("%d capacities in use, want %d pools", len(seen), chunkClasses)
	}
	for _, n := range []int{1, 4097, 16406, 262161, 1 << chunkClassMax} {
		b := leaseChunk(n)
		if _, size := chunkClass(n); len(b) != n || cap(b) != size {
			t.Fatalf("leaseChunk(%d): len %d cap %d, want cap %d", n, len(b), cap(b), size)
		}
		releaseChunk(b)
	}
	releaseChunk(make([]byte, 0, 1<<chunkClassMax+1<<(chunkClassMax-4))) // refused: above the largest class
}

// TestQueuedRecordsHoldLittleSlack writes a half's bound as TLS-record-sized
// writes (16 KiB of payload and 22 bytes of framing) into a pipe nobody
// reads, and sums the capacity of the chunks queued for the reader: it stays
// within a sixteenth of the bytes queued, where one power-of-two class per
// octave held twice them.
func TestQueuedRecordsHoldLittleSlack(t *testing.T) {
	h := newPipeHalf(nil)
	defer h.hardClose()
	const record = 16<<10 + 22
	rec := make([]byte, record)
	bound := h.bound()
	for left := bound; left > 0; left -= min(left, record) {
		if _, err := h.write(rec[:min(left, record)], time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	h.mu.Lock()
	queued, capacity := h.buffered, 0
	for _, c := range h.buf {
		capacity += cap(c.full)
	}
	h.mu.Unlock()
	t.Logf("%d bytes queued in %d bytes of chunks", queued, capacity)
	if queued != bound {
		t.Fatalf("queued %d bytes, want %d", queued, bound)
	}
	if capacity*16 > bound*17 {
		t.Fatalf("%d bytes queued in %d bytes of chunks, more than 17/16 of them", queued, capacity)
	}
}
