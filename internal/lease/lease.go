// Package lease hands out the byte buffers of the data path: the MODE E
// receive and coalescing buffers of internal/gridftp and the chunks netsim
// queues on a link. Buffers come from a fixed array of size classes, two
// per octave, 2^k and 2^k + 2^(k-4), from 4 KiB up to 64 MiB + 4 MiB, the
// class that holds gridftp's largest negotiable block and two block
// headers. Bulk writes are a power of two plus a header — a 256 KiB MODE E
// block and its 17-byte header, a 16 KiB TLS record and its 22 bytes of
// framing — and the second class holds them within a sixteenth of their
// size, where the next power of two would hold them in twice it.
//
// The classes are fixed, so the pools do not grow with the sizes a peer
// negotiates. The cost is slack on a size that is not a class: a TLS or
// integrity coalescing buffer of 256 KiB + 34 B takes the 272 KiB class
// (16 KiB a stream more than an exact pool held), a block size such as
// 300,000 B leases 1.75× its size (one just above 2^k + 2^(k-4) nearly
// 1.9×), and a block under 4 KiB leases 4 KiB. 64 KiB and 256 KiB,
// netsim's batch buffer and the default block, are classes.
package lease

import (
	"math/bits"
	"sync"
)

const (
	minShift = 12 // 4 KiB
	maxShift = 26 // 64 MiB, gridftp's largest block
	classes  = 2*(maxShift-minShift) + 2
	// largest is the top class: 64 MiB and two 17-byte headers fit in it.
	largest = 1<<maxShift + 1<<(maxShift-4)
)

var pools [classes]sync.Pool

// boxes holds the *[]byte a Get emptied, for a Put to refill: a slice put
// into a sync.Pool by the address of a fresh variable would cost a heap
// allocation per Put.
var boxes sync.Pool

// class maps a byte count of at most largest to (pool index, class
// capacity): the smallest class that holds n.
func class(n int) (int, int) {
	if n <= 1<<minShift {
		return 0, 1 << minShift
	}
	k := bits.Len(uint(n-1)) - 1 // 2^k < n <= 2^(k+1)
	if mid := 1<<k + 1<<(k-4); n <= mid {
		return 2*(k-minShift) + 1, mid
	}
	return 2 * (k + 1 - minShift), 1 << (k + 1)
}

// Get returns an n-byte buffer whose capacity is n's class, from that
// class's pool. The caller owns it until Put. Above the largest class it
// makes a plain buffer, which Put drops.
func Get(n int) []byte {
	if n > largest {
		return make([]byte, n)
	}
	idx, size := class(n)
	if v := pools[idx].Get(); v != nil {
		box := v.(*[]byte)
		b := (*box)[:n]
		*box = nil
		boxes.Put(box)
		return b
	}
	return make([]byte, n, size)
}

// Put recycles a buffer by its capacity; one that is not a class's (grown,
// foreign, above the largest class) is left to the GC. The caller must not
// touch the buffer afterwards: a later Get may hand it to another stream.
func Put(b []byte) {
	c := cap(b)
	if c > largest {
		return
	}
	idx, size := class(c)
	if size != c {
		return
	}
	box, _ := boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = b[:size]
	pools[idx].Put(box)
}
