package gridftp

import "gridftp.dev/instant/internal/lease"

// BufferPool leases buffers of one size from the data path's one allocator
// (internal/lease), as every MODE E buffer is leased: a receive's payload
// buffer, a send's coalescing buffer (blockWriter), netsim's chunks. It
// holds no pool of its own. Buffers are handed out at full length (len ==
// Size); Release drops a buffer whose capacity is not a lease class (one
// ReadBlock had to grow, say). A Lease and its Release allocate nothing.
type BufferPool struct{ size int }

// NewBufferPool returns a pool of size-byte buffers.
func NewBufferPool(size int) *BufferPool {
	if size <= 0 {
		size = DefaultBlockSize
	}
	return &BufferPool{size: size}
}

// Size is the length of every buffer this pool leases.
func (p *BufferPool) Size() int { return p.size }

// Lease returns a buffer of length Size. The caller owns it until Release.
func (p *BufferPool) Lease() []byte { return lease.Get(p.size) }

// Release returns a leased buffer. The caller must not touch the buffer
// afterwards — a later Lease may hand it to another stream.
func (p *BufferPool) Release(buf []byte) { lease.Put(buf) }
