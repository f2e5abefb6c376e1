package gridftp

import "sync"

// BufferPool leases fixed-size buffers for the MODE E data path so the
// per-block and per-connection `make([]byte, blockSize)` churn the E2
// profile surfaced disappears. The payload buffers a send reads blocks into
// and a receive reads them off the wire into come from the pool of the
// negotiated block size; a send's coalescing buffer (blockWriter) comes from
// one of two: batchCap on a conn with vectored writes, the block size plus a
// header on one without. Buffers are handed out at full length (len == Size)
// and recycled on Release; foreign buffers (wrong capacity, e.g. one
// ReadBlock had to grow past the negotiated size) are dropped on the floor
// rather than poisoning the pool. A Lease and its Release allocate nothing.
type BufferPool struct {
	size int
	bufs sync.Pool // *[]byte holding a buffer of capacity size
	// boxes holds the *[]byte a Lease emptied, for a Release to refill: a
	// slice put into a sync.Pool by the address of a fresh variable would
	// cost a heap allocation per Release.
	boxes sync.Pool
}

// NewBufferPool returns a pool of size-byte buffers.
func NewBufferPool(size int) *BufferPool {
	if size <= 0 {
		size = DefaultBlockSize
	}
	p := &BufferPool{size: size}
	p.bufs.New = func() any {
		b := make([]byte, size)
		return &b
	}
	return p
}

// Size is the capacity of every buffer this pool leases.
func (p *BufferPool) Size() int { return p.size }

// Lease returns a buffer of length Size. The caller owns it until Release.
func (p *BufferPool) Lease() []byte {
	box := p.bufs.Get().(*[]byte)
	buf := *box
	*box = nil
	p.boxes.Put(box)
	return buf
}

// Release returns a leased buffer to the pool. The caller must not touch
// the buffer afterwards — a later Lease may hand it to another stream.
func (p *BufferPool) Release(buf []byte) {
	if cap(buf) != p.size {
		return // grown or foreign buffer; let the GC have it
	}
	box, _ := p.boxes.Get().(*[]byte)
	if box == nil {
		box = new([]byte)
	}
	*box = buf[:p.size]
	p.bufs.Put(box)
}

// payloadPools maps buffer size -> *BufferPool. Block sizes are negotiated
// values (a handful per process), and the coalescing buffers add batchCap
// and block size + header to them, so a process-wide registry keyed by size
// lets every session and client share warm buffers.
var payloadPools sync.Map

// poolFor returns the process-wide buffer pool for the given size.
func poolFor(size int) *BufferPool {
	if size <= 0 {
		size = DefaultBlockSize
	}
	if p, ok := payloadPools.Load(size); ok {
		return p.(*BufferPool)
	}
	p, _ := payloadPools.LoadOrStore(size, NewBufferPool(size))
	return p.(*BufferPool)
}
