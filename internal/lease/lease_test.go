package lease

import (
	"math/bits"
	"testing"
)

// TestChunkClasses checks class over every byte count up to 512 KiB, the
// most a netsim chunk holds, and at c-1, c and c+1 for every class c above
// it: the class holds n, a released buffer of the class goes back to the
// pool it came from, a power of two plus up to a sixteenth of it is held
// within 17/16 of its size, and no class is larger than the power-of-two
// class the pools had before the second class per octave.
func TestChunkClasses(t *testing.T) {
	seen := map[int]int{} // capacity -> pool index
	check := func(n int) {
		t.Helper()
		idx, size := class(n)
		if size < n {
			t.Fatalf("class(%d) = %d bytes, which does not hold it", n, size)
		}
		if idx < 0 || idx >= classes {
			t.Fatalf("class(%d) = pool %d of %d", n, idx, classes)
		}
		if back, bsize := class(size); back != idx || bsize != size {
			t.Fatalf("a %d-byte buffer of pool %d releases to pool %d (%d bytes)", size, idx, back, bsize)
		}
		if prev, ok := seen[size]; ok && prev != idx {
			t.Fatalf("capacity %d maps to pools %d and %d", size, prev, idx)
		}
		seen[size] = idx
		pow := max(1<<minShift, 1<<bits.Len(uint(n-1)))
		if size > pow {
			t.Fatalf("class(%d) = %d bytes, more than the power-of-two class %d", n, size, pow)
		}
		if n > 1<<minShift {
			k := bits.Len(uint(n-1)) - 1
			if h := n - 1<<k; h <= 1<<(k-4) && size*16 > n*17 {
				t.Fatalf("class(%d) = %d bytes, more than 17/16 of it", n, size)
			}
		}
	}
	const exhaustive = 1 << 19 // 512 KiB
	for n := 1; n <= exhaustive; n++ {
		check(n)
	}
	for k := 19; k <= maxShift; k++ {
		for _, c := range []int{1<<k + 1<<(k-4), 1 << (k + 1)} {
			if c > largest {
				continue
			}
			check(c - 1)
			check(c)
			if c < largest {
				check(c + 1)
			}
		}
	}
	if len(seen) != classes {
		t.Fatalf("%d capacities in use, want %d pools", len(seen), classes)
	}
	if _, size := class(64<<20 + 2*17); size != largest {
		t.Fatalf("the largest block and two headers take a %d-byte class, want the largest, %d", size, largest)
	}
	for _, n := range []int{1, 4097, 16406, 262161, exhaustive} {
		b := Get(n)
		if _, size := class(n); len(b) != n || cap(b) != size {
			t.Fatalf("Get(%d): len %d cap %d, want cap %d", n, len(b), cap(b), size)
		}
		Put(b)
	}
	Put(make([]byte, 0, exhaustive+1)) // refused: not a class
}

// TestGetAndPutAllocateNothing: a lease cycle is free once the class is
// warm — Put keeps a *[]byte box for the buffer instead of taking the
// address of its parameter.
func TestGetAndPutAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	for _, n := range []int{1024, 64 << 10, 256<<10 + 34} {
		if allocs := testing.AllocsPerRun(100, func() { Put(Get(n)) }); allocs != 0 {
			t.Errorf("a Get(%d) and its Put cost %.1f allocations, want 0", n, allocs)
		}
	}
}
