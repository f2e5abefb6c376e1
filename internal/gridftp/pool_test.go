package gridftp

import (
	"bytes"
	"io"
	"runtime"
	"slices"
	"sync"
	"testing"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/lease"
	"gridftp.dev/instant/internal/netsim"
)

// TestBufferPoolConcurrentLease hammers one pool from 16 goroutines (the
// shape of a p=16 parallel receive): every holder fills its lease with a
// goroutine-unique pattern and re-checks it after yielding. A pool that
// ever hands the same buffer to two concurrent holders fails the pattern
// check, and under -race the overlapping writes are reported directly.
func TestBufferPoolConcurrentLease(t *testing.T) {
	const size = 4096
	p := NewBufferPool(size)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(pat byte) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				buf := p.Lease()
				if len(buf) != size {
					errs <- "short lease"
					return
				}
				for j := range buf {
					buf[j] = pat
				}
				for j := range buf {
					if buf[j] != pat {
						errs <- "buffer shared between concurrent holders"
						return
					}
				}
				p.Release(buf)
			}
		}(byte(g + 1))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestBufferPoolReleaseForeign verifies that buffers of the wrong size are
// dropped rather than pooled, so a resized lease can never poison later
// leases with a short buffer.
func TestBufferPoolReleaseForeign(t *testing.T) {
	p := NewBufferPool(1024)
	p.Release(make([]byte, 16)) // wrong capacity: must be dropped
	if got := p.Lease(); len(got) != 1024 {
		t.Fatalf("lease after foreign release: len %d, want 1024", len(got))
	}
}

// TestBlockSizesDoNotGrowTheHeap: a peer may negotiate any block size from
// minBlockSize to maxBlockSize, and the buffers a MODE E receive and a
// buffered conn's blockWriter lease for it come from a fixed set of size
// classes, so 10,000 distinct sizes leave nothing behind once the pools
// are collected. A registry of one pool per exact size kept an entry a size
// alive for good, about 2.3 MB here.
func TestBlockSizesDoNotGrowTheHeap(t *testing.T) {
	heap := func() uint64 {
		for range 3 {
			runtime.GC()
		}
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	for size := minBlockSize; size < minBlockSize+10000; size++ {
		lease.Put(lease.Get(size))                 // recvModeE's receive buffer
		newBlockWriter(io.Discard, size).release() // a TLS or integrity conn's coalescing buffer
	}
	after := heap()
	grown := int64(after) - int64(before)
	t.Logf("live heap grew %d bytes over 10,000 block sizes", grown)
	if grown >= 512<<10 {
		t.Errorf("10,000 block sizes grew the live heap by %d bytes, want under 512 KiB", grown)
	}
}

// TestReadBlockPooledAliasing pins down the pooled-receive contract: a
// block returned by ReadBlock aliases the lease, so a consumer must copy
// the payload (as WriteAt does) before the next ReadBlock reuses the
// buffer. The copy must survive the reuse, and the stale Block.Data must
// observably alias the new contents — if it ever stops aliasing, the fast
// path has started allocating per block again.
func TestReadBlockPooledAliasing(t *testing.T) {
	pool := NewBufferPool(1024)
	buf := pool.Lease()
	defer pool.Release(buf)

	var wire bytes.Buffer
	mustWrite := func(b *Block) {
		t.Helper()
		if err := WriteBlock(&wire, b); err != nil {
			t.Fatal(err)
		}
	}
	mustWrite(&Block{Desc: DescRestartable, Count: 4, Offset: 0, Data: []byte("aaaa")})
	mustWrite(&Block{Desc: DescRestartable, Count: 4, Offset: 4, Data: []byte("bbbb")})

	b1, buf, err := ReadBlock(&wire, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]byte(nil), b1.Data...) // consumer copy, WriteAt-style
	b2, buf, err := ReadBlock(&wire, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = buf
	if !bytes.Equal(saved, []byte("aaaa")) {
		t.Fatalf("consumer copy corrupted by buffer reuse: %q", saved)
	}
	if !bytes.Equal(b2.Data, []byte("bbbb")) {
		t.Fatalf("second block payload %q", b2.Data)
	}
	if !bytes.Equal(b1.Data, []byte("bbbb")) {
		t.Fatalf("stale block no longer aliases the lease (payload %q): receive loop is allocating per block", b1.Data)
	}
}

// TestReadBlockAllocatesNothing: reading a block into a leased buffer costs
// no allocation — the header lands in the lease too, not in an array that
// escapes through io.Reader.
func TestReadBlockAllocatesNothing(t *testing.T) {
	var wire bytes.Buffer
	if err := WriteBlock(&wire, &Block{Desc: DescRestartable, Count: 512, Data: make([]byte, 512)}); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(wire.Bytes())
	buf := NewBufferPool(1024).Lease()
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(wire.Bytes())
		if _, _, err := ReadBlock(r, buf, 0); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("ReadBlock into a leased buffer costs %.1f allocations, want 0", allocs)
	}
}

// TestLeaseAndReleaseAllocateNothing: a lease cycle is free once the pool is
// warm — Release keeps a *[]byte box for the buffer instead of taking the
// address of its parameter.
func TestLeaseAndReleaseAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	p := NewBufferPool(1024)
	if allocs := testing.AllocsPerRun(100, func() { p.Release(p.Lease()) }); allocs != 0 {
		t.Errorf("a Lease and its Release cost %.1f allocations, want 0", allocs)
	}
}

// TestWarmGetAllocatesLittle: a warm 16 MiB GET over pooled channels, two
// streams, on an unshaped link, allocates under 64 KiB in the whole process
// (client and server) in PROT C and in PROT P, its sink reused. Its buffers
// — the payload leases and each stream's coalescing buffer — all come from
// the pools; a coalescing buffer made per stream per transfer was 512 KiB a
// GET. The reading is the median of nine GETs: now and then one GET pays
// for a fresh pooled buffer, when the buffer it wants sits in another P's
// private sync.Pool slot or the link's queue reaches a new depth.
func TestWarmGetAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account, and sync.Pool drops puts")
	}
	const size, warm, gets, budget = 16 << 20, 8, 9, 64 << 10
	for _, prot := range []ProtLevel{ProtClear, ProtPrivate} {
		t.Run(string(prot), func(t *testing.T) {
			nw := netsim.NewNetwork()
			s := newSite(t, nw, "siteA")
			s.putFile(t, "/big.bin", pattern(size))
			c := s.connect(t, nw.Host("laptop"), true)
			for _, err := range []error{c.SetMode(ModeExtended), c.SetParallelism(2), c.SetProt(prot)} {
				if err != nil {
					t.Fatal(err)
				}
			}
			sink := dsi.NewBufferFile(nil)
			var per []uint64
			for i := 0; i < warm+gets; i++ { // the first dials the channels and grows the sink
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := c.Get("/big.bin", sink); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				if i >= warm {
					per = append(per, after.TotalAlloc-before.TotalAlloc)
				}
			}
			slices.Sort(per)
			t.Logf("PROT %c: bytes allocated per warm GET, sorted: %v", prot, per)
			if median := per[gets/2]; median >= budget {
				t.Errorf("a warm 16 MiB GET allocates %d bytes (median of %d), want under %d", median, gets, budget)
			}
			if !bytes.Equal(sink.Bytes(), pattern(size)) {
				t.Fatal("the GET's bytes differ from the file's")
			}
		})
	}
}
