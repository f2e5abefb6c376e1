package gridftp

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/leakcheck"
	"gridftp.dev/instant/internal/netsim"
)

func TestJobSize(t *testing.T) {
	const block = DefaultBlockSize
	for _, tc := range []struct {
		total   int64
		streams int
		want    int
	}{
		{0, 16, minJobSize},
		{1, 16, minJobSize},
		{1 << 20, 16, 64 << 10},     // the wan_fresh_p16 shape: one share per stream
		{1<<20 + 1, 16, 64<<10 + 1}, // shares round up, so streams × share covers the file
		{256 << 10, 4, 64 << 10},
		{256 << 10, 1, block},
		{4<<20 - 1, 16, block}, // ⌈(4 MiB − 1) ÷ 16⌉ is the block size
		{4 << 20, 16, block},   // streams × block and up: today's blocks
		{5 << 20, 16, block},
		{32 << 20, 16, block},
		{100 << 10, 16, minJobSize}, // 6.25 KiB shares are floored
	} {
		if got := jobSize(tc.total, tc.streams, block); got != tc.want {
			t.Errorf("jobSize(%d, %d, %d) = %d, want %d", tc.total, tc.streams, block, got, tc.want)
		}
	}
}

// blockLog is a receiving end that records every data block's (offset,
// count) and lands the bytes in a file.
type blockLog struct {
	mu     sync.Mutex
	blocks [][2]int64
}

// drain reads MODE E blocks off conns until each has sent EOD.
func (l *blockLog) drain(t *testing.T, conns []net.Conn, dst dsi.File, blockSize int) {
	t.Helper()
	var wg sync.WaitGroup
	for i, conn := range conns {
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			var buf []byte
			for {
				b, nbuf, err := ReadBlock(conn, buf, blockLenLimit(blockSize))
				buf = nbuf
				if err != nil {
					t.Errorf("stream %d: %v", i, err)
					return
				}
				if b.Count > 0 {
					if _, err := dst.WriteAt(b.Data, int64(b.Offset)); err != nil {
						t.Errorf("stream %d: %v", i, err)
						return
					}
					l.mu.Lock()
					l.blocks = append(l.blocks, [2]int64{int64(b.Offset), int64(b.Count)})
					l.mu.Unlock()
				}
				if b.EOD() {
					return
				}
			}
		}(i, conn)
	}
	wg.Wait()
	sort.Slice(l.blocks, func(a, b int) bool { return l.blocks[a][0] < l.blocks[b][0] })
}

func secConns(chans []*dataChannel) []net.Conn {
	conns := make([]net.Conn, len(chans))
	for i, ch := range chans {
		conns[i] = ch.sec
	}
	return conns
}

// TestShortTransferUsesEveryStream is the wan_fresh_p16 shape: 1 MiB over 16
// streams. Cut at the negotiated 256 KiB block that is 4 blocks, so 12 of the
// 16 channels carried an EOD and nothing else and the other 4 pushed four
// windows each (≈ 90 ms on the reference WAN); cut per stream and dealt
// stream i block i, every channel carries exactly its share (≈ 30 ms: one
// window, and half a round trip to arrive). The unshaped row is the lan_*
// link, where nothing paces the writers: the deal, not the link, spreads the
// blocks.
func TestShortTransferUsesEveryStream(t *testing.T) {
	const streams, size, share = 16, 1 << 20, (1 << 20) / 16
	for _, tc := range []struct {
		name   string
		link   *netsim.LinkParams
		within time.Duration // zero: no bound on the elapsed time
	}{
		{"reference WAN", &refWAN, 60 * time.Millisecond},
		{"unshaped", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pp := newPathPair(t)
			if tc.link != nil {
				pp.nw.SetLink("lis", "con", *tc.link)
			}
			accepted, dialed := pp.open(streams)
			defer closeChannels(accepted)
			defer closeChannels(dialed)
			payload := pattern(size)
			sent := make([]int64, streams)
			var mu sync.Mutex
			errCh := make(chan error, 1)
			start := time.Now()
			go func() {
				errCh <- sendModeE(secConns(dialed), dsi.NewBufferFile(payload), []Range{{0, size}}, DefaultBlockSize,
					func(stream int, n int64, _ time.Duration) { mu.Lock(); sent[stream] += n; mu.Unlock() })
			}()
			dst := dsi.NewBufferFile(nil)
			var log blockLog
			log.drain(t, secConns(accepted), dst, DefaultBlockSize)
			elapsed := time.Since(start)
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst.Bytes(), payload) {
				t.Fatal("received bytes differ from the source")
			}
			if len(log.blocks) != streams {
				t.Fatalf("%d blocks sent, want one %d-byte share per stream", len(log.blocks), share)
			}
			for i, n := range sent {
				if n != share {
					t.Fatalf("stream %d carried %d bytes, want one %d-byte share (all: %v)", i, n, share, sent)
				}
			}
			// Under the race detector starting a stream takes ≈ 1.5 ms and
			// sixteen of them do not fit in a window; the shares are checked
			// there, the elapsed time is not.
			if tc.within > 0 && elapsed > tc.within && !raceEnabled {
				t.Errorf("1 MiB over %d streams took %v; every stream carrying one window is ≈ 30 ms", streams, elapsed)
			}
		})
	}
}

// countedConn counts the writes a send hands its netsim connection, buffered
// or from storage. It forwards the netsim conn's direct path, so a block goes
// by sendFrom.
type countedConn struct {
	net.Conn
	directConn
	writes *atomic.Int64
}

func (c countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c countedConn) sendFrom(r *blockReader) error {
	c.writes.Add(1)
	return c.directConn.sendFrom(r)
}

// TestShortTransferIsOneWritePerStream: 1 MiB over 16 streams is one 64 KiB
// block a stream, and one write a stream. Connection 0's EOF block leaves
// with its data block, and every stream's EOD rides its last block: when a
// stream is about to write it, every block number has been taken.
func TestShortTransferIsOneWritePerStream(t *testing.T) {
	const streams, size = 16, 1 << 20
	payload := pattern(size)
	pp := newPathPair(t)
	accepted, dialed := pp.open(streams)
	defer closeChannels(accepted)
	defer closeChannels(dialed)
	var writes atomic.Int64
	conns := secConns(dialed)
	for i, c := range conns {
		conns[i] = countedConn{c, direct(c), &writes}
	}
	errCh := make(chan error, 1)
	go func() {
		errCh <- sendModeE(conns, dsi.NewBufferFile(payload), []Range{{0, size}}, DefaultBlockSize, nil)
	}()
	dst := dsi.NewBufferFile(nil)
	var log blockLog
	log.drain(t, secConns(accepted), dst, DefaultBlockSize)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), payload) {
		t.Fatal("received bytes differ from the source")
	}
	if got := writes.Load(); got != streams {
		t.Errorf("%d writes for 1 MiB over %d streams, want %d: one a stream, its EOF and EOD riding its block", got, streams, streams)
	}
}

// discardDirect is a direct conn that only sends: it takes plain writes and
// sendFrom, read through a scratch buffer, counts the calls and keeps
// nothing.
type discardDirect struct {
	writes  int
	scratch [16 << 10]byte
}

func (d *discardDirect) Write(p []byte) (int, error) {
	d.writes++
	return len(p), nil
}

func (d *discardDirect) sendFrom(r *blockReader) error {
	d.writes++
	for {
		_, err := r.Read(d.scratch[:])
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

func (d *discardDirect) landTo(*blockSink) error { return io.EOF }

// TestVectoredBlocksAllocateNothing: a stream's blocks framed onto a conn
// that takes each header and its payload in one call — from storage, by
// ReadFrom, the first block behind the coalesced EOF block, the last carrying
// the EOD — cost one write each and no allocation.
func TestVectoredBlocksAllocateNothing(t *testing.T) {
	d := &discardDirect{}
	bw := newBlockWriter(d, DefaultBlockSize)
	const n = 64 << 10
	src := dsi.NewBufferFile(make([]byte, 2*n))
	stream := func() {
		for _, err := range []error{
			bw.writeBlock(DescEOF, 1),
			bw.writeBlockAt(DescRestartable, src, 0, n),
			bw.writeBlockAt(DescRestartable|DescEOD, src, n, n),
			bw.flush(),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(50, stream); allocs != 0 {
		t.Errorf("a stream of two vectored blocks costs %.1f allocations, want 0", allocs)
	}
	if d.writes != 2*51 { // AllocsPerRun warms up with one extra call
		t.Errorf("%d writes for 51 streams of two blocks, want %d", d.writes, 2*51)
	}
}

// slowConn sends blocks at a quarter of its netsim link's pace: after each
// block it sends from storage (sendFrom) it waits three times as long as the
// send took. It forwards the netsim conn's direct path, so blocks go that way.
type slowConn struct {
	net.Conn
	directConn
}

func (c slowConn) sendFrom(r *blockReader) error {
	start := time.Now()
	err := c.directConn.sendFrom(r)
	time.Sleep(3 * time.Since(start))
	return err
}

// TestSlowStreamCostsAtMostOneBlock: a stream holds only the block it is
// sending, so one stream of 8 slowed 4× adds at most about one of its blocks
// to the transfer. Dealt a fixed eighth of the blocks instead it would take
// ≈ 3× as long as the other 7 alone. The two sends alternate three times and
// the best of each is compared, so a busy host that slows one send does not
// decide the ratio.
func TestSlowStreamCostsAtMostOneBlock(t *testing.T) {
	const size, block = 16 << 20, 64 << 10
	payload := pattern(size)
	send := func(streams int, slow bool) time.Duration {
		pp := newPathPair(t)
		pp.nw.SetLink("lis", "con", refWAN)
		accepted, dialed := pp.open(streams)
		defer closeChannels(accepted)
		defer closeChannels(dialed)
		conns := secConns(dialed)
		if slow {
			conns[streams-1] = slowConn{conns[streams-1], direct(conns[streams-1])}
		}
		errCh := make(chan error, 1)
		start := time.Now()
		go func() { errCh <- sendModeE(conns, dsi.NewBufferFile(payload), []Range{{0, size}}, block, nil) }()
		dst := dsi.NewBufferFile(nil)
		var log blockLog
		log.drain(t, secConns(accepted), dst, block)
		elapsed := time.Since(start)
		if err := <-errCh; err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst.Bytes(), payload) {
			t.Fatal("received bytes differ from the source")
		}
		return elapsed
	}
	seven, eight := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for range 3 {
		seven = min(seven, send(7, false))
		eight = min(eight, send(8, true))
	}
	t.Logf("best of three: 7 streams %v; 8 streams, one slowed 4×, %v (%.2f×)", seven, eight, float64(eight)/float64(seven))
	if eight > seven*5/4 {
		t.Errorf("8 streams with one slowed 4× took at best %v, more than 1.25× the best %v of 7 streams", eight, seven)
	}
}

// failingConn refuses every write.
type failingConn struct{ net.Conn }

func (failingConn) Write([]byte) (int, error) { return 0, errors.New("write refused") }

// TestFailedSendLeavesNoGoroutine: when every stream fails with most of the
// blocks unsent, sendModeE returns and nothing it started stays behind
// holding the file.
func TestFailedSendLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	conns := []net.Conn{failingConn{}, failingConn{}}
	if err := sendModeE(conns, dsi.NewBufferFile(make([]byte, 32<<20)), []Range{{0, 32 << 20}}, DefaultBlockSize, nil); err == nil {
		t.Fatal("a send over conns that refuse every write succeeded")
	}
	if after := leakcheck.AtMost(before); after > before {
		t.Fatalf("%d goroutines before the send, %d after it failed", before, after)
	}
}

// deathWatch counts the data blocks each stream of a send begins — each
// sent from storage by sendFrom — and makes stream dead fail its third and
// every later one. atDeath is every stream's count at that first failure.
type deathWatch struct {
	mu             sync.Mutex
	dead           int
	begun, atDeath []int
}

// watchedConn forwards its netsim conn's direct path, so blocks go by
// sendFrom.
type watchedConn struct {
	net.Conn
	directConn
	w      *deathWatch
	stream int
}

func (c watchedConn) sendFrom(r *blockReader) error {
	w := c.w
	w.mu.Lock()
	w.begun[c.stream]++
	dies := c.stream == w.dead && w.begun[c.stream] > 2
	if dies && w.atDeath == nil {
		w.atDeath = slices.Clone(w.begun)
	}
	w.mu.Unlock()
	if dies {
		return errors.New("connection died")
	}
	return c.directConn.sendFrom(r)
}

// TestDeadStreamEndsTheSend: one of 16 streams dies after two blocks. The
// others finish the block each is sending, begin at most one more — one taken
// before the failed stream's goroutine ends the deal — and stop, instead of
// sending the rest of the 32 MiB between them.
func TestDeadStreamEndsTheSend(t *testing.T) {
	const streams, size = 16, 32 << 20
	pp := newPathPair(t)
	pp.nw.SetLink("lis", "con", refWAN)
	accepted, dialed := pp.open(streams)
	defer closeChannels(dialed)
	for _, ch := range accepted {
		go io.Copy(io.Discard, ch.sec)
	}
	defer closeChannels(accepted)

	w := &deathWatch{dead: 5, begun: make([]int, streams)}
	conns := secConns(dialed)
	for i := range conns {
		conns[i] = watchedConn{conns[i], direct(conns[i]), w, i}
	}
	if err := sendModeE(conns, dsi.NewBufferFile(pattern(size)), []Range{{0, size}}, DefaultBlockSize, nil); err == nil {
		t.Fatal("a send with a dead stream succeeded")
	}
	if w.atDeath == nil {
		t.Fatal("the dying stream never failed a write")
	}
	for i := range w.begun {
		if i != w.dead && w.begun[i]-w.atDeath[i] > 1 {
			t.Errorf("stream %d began %d blocks after stream %d died, want at most 1 (all, then and at the end: %v %v)", i, w.begun[i]-w.atDeath[i], w.dead, w.atDeath, w.begun)
		}
	}
}

// TestLongTransferBlocksAreUnchanged: from streams × block bytes up the
// sender cuts exactly the blocks it always has — every range at the
// negotiated block size — and below that, blocks of jobSize.
func TestLongTransferBlocksAreUnchanged(t *testing.T) {
	const block = 64 << 10 // small blocks keep the long cases cheap
	for _, tc := range []struct {
		name    string
		streams int
		ranges  []Range
	}{
		{"exactly streams x block", 4, []Range{{0, 4 * block}}},
		{"longer, ragged tail", 4, []Range{{0, 5*block + 1234}}},
		{"restart ranges", 2, []Range{{100, 3*block + 100}, {4 * block, 6*block + 7}}},
		{"short", 4, []Range{{0, 2 * block}}},
		{"short restart ranges", 4, []Range{{10, block}, {block + 500, 2 * block}}},
		{"one byte", 4, []Range{{0, 1}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pp := newPathPair(t)
			accepted, dialed := pp.open(tc.streams)
			defer closeChannels(accepted)
			defer closeChannels(dialed)
			end := tc.ranges[len(tc.ranges)-1].End
			payload := pattern(int(end))
			errCh := make(chan error, 1)
			go func() {
				errCh <- sendModeE(secConns(dialed), dsi.NewBufferFile(payload), tc.ranges, block, nil)
			}()
			var log blockLog
			log.drain(t, secConns(accepted), dsi.NewBufferFile(nil), block)
			if err := <-errCh; err != nil {
				t.Fatal(err)
			}
			size := block
			if total := totalLen(tc.ranges); total < int64(tc.streams*block) {
				size = jobSize(total, tc.streams, block)
				if size >= block {
					t.Fatalf("a %d-byte transfer over %d streams is cut at %d, no smaller than the block", total, tc.streams, size)
				}
			}
			var want [][2]int64
			for _, r := range tc.ranges {
				for off := r.Start; off < r.End; off += int64(size) {
					want = append(want, [2]int64{off, min(int64(size), r.End-off)})
				}
			}
			if fmt.Sprint(log.blocks) != fmt.Sprint(want) {
				t.Fatalf("blocks (offset, count) sent:\n %v\nwant:\n %v", log.blocks, want)
			}
		})
	}
}

// TestTransfersOfEverySizeAreByteExact moves files on both sides of the
// streams × block boundary, whole and as restarts with two holes, in both
// directions, at 1, 2 and 16 streams.
func TestTransfersOfEverySizeAreByteExact(t *testing.T) {
	sizes := []int{0, 1, 16<<10 - 1, 256 << 10, 1 << 20, 4<<20 - 1, 5 << 20}
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	for _, streams := range []int{1, 2, 16} {
		c := s.connect(t, nw.Host("laptop"), true)
		if err := c.SetParallelism(streams); err != nil {
			t.Fatal(err)
		}
		for _, size := range sizes {
			payload := pattern(size)
			// have is what a restart claims already landed: three pieces, two holes.
			n := int64(size)
			have := FromRanges([]Range{{0, n / 5}, {2 * n / 5, 3 * n / 5}, {4 * n / 5, n}}).Ranges()
			partial := make([]byte, size) // the pieces in place, zeros in the holes
			for _, r := range have {
				copy(partial[r.Start:r.End], payload[r.Start:r.End])
			}
			for _, restart := range [][]Range{nil, have} {
				name := fmt.Sprintf("p%d/%d bytes/restart %v", streams, size, restart != nil)
				path := fmt.Sprintf("/f-%d-%d-%v.bin", streams, size, restart != nil)

				// GET: the holes land in a destination that holds the pieces.
				s.putFile(t, path, payload)
				dst := dsi.NewBufferFile(nil)
				if restart != nil {
					dst = dsi.NewBufferFile(append([]byte(nil), partial...))
					c.SetRestart(restart)
				}
				stats, err := c.Get(path, dst)
				if err != nil {
					t.Fatalf("%s: get: %v", name, err)
				}
				if want := n - totalLen(restart); stats.Bytes != want {
					t.Errorf("%s: get moved %d bytes, want %d", name, stats.Bytes, want)
				}
				if !bytes.Equal(dst.Bytes(), payload) {
					t.Fatalf("%s: downloaded bytes differ", name)
				}

				// PUT: the same, into a remote file that holds the pieces.
				if restart != nil {
					s.putFile(t, path, partial)
					c.SetRestart(restart)
				}
				if _, err := c.Put(path, dsi.NewBufferFile(payload)); err != nil {
					t.Fatalf("%s: put: %v", name, err)
				}
				if !bytes.Equal(s.readFile(t, path), payload) {
					t.Fatalf("%s: uploaded bytes differ", name)
				}
			}
		}
		c.Close()
	}
}
