package gridftp

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/lease"
	"gridftp.dev/instant/internal/netsim"
)

// TransferMode selects the data channel mode.
type TransferMode byte

const (
	// ModeStream is classic RFC 959 stream mode: one connection, EOF by
	// close. No restart markers, no parallelism.
	ModeStream TransferMode = 'S'
	// ModeExtended is GridFTP MODE E: framed blocks with offsets, enabling
	// parallel streams, striping, out-of-order delivery, and restart.
	ModeExtended TransferMode = 'E'
)

// ChannelSpec captures the data channel parameters negotiated on the
// control channel.
type ChannelSpec struct {
	Mode        TransferMode
	Parallelism int
	BlockSize   int
	DCAU        DCAUMode
	Prot        ProtLevel
	// Transport selects the data channel transport protocol (TCP or a
	// rate-based UDT profile) the raw conn is dialled with — what the
	// paper reaches through an XIO driver (§II.A [9]).
	Transport netsim.Transport
	// MarkerInterval is the session's marker cadence ("OPTS RETR Markers="):
	// restart markers (111) from the receiving side and performance markers
	// (112) from either. Zero leaves the server's own setting in force.
	MarkerInterval time.Duration
}

// Normalize fills defaults. It keeps the parallelism in MODE S, where every
// transfer opens one channel whatever it says, so a session that returns to
// MODE E runs the streams it negotiated.
func (s ChannelSpec) Normalize() ChannelSpec {
	if s.Mode == 0 {
		s.Mode = ModeStream
	}
	if s.Parallelism <= 0 {
		s.Parallelism = 1
	}
	if s.BlockSize <= 0 {
		s.BlockSize = DefaultBlockSize
	}
	if s.DCAU == 0 {
		s.DCAU = DCAUSelf
	}
	if s.Prot == 0 {
		s.Prot = ProtClear
	}
	return s
}

// minJobSize floors the blocks a short transfer is cut into (jobSize). A
// block costs a 17-byte header, one ReadAt and one write whatever it carries;
// from 16 KiB up that is under a thousandth of the payload and the block still
// goes out behind its header in one write (vectorMin). Cutting finer buys nothing: a
// 16 KiB share is already a quarter of a 64 KiB window.
const minJobSize = 16 * 1024

// jobSize is the payload of the blocks a transfer of total bytes is cut
// into: the negotiated block size, unless that leaves streams idle — a
// transfer shorter than streams × blockSize is cut into one share per stream
// (never below minJobSize), so every channel that was paid for carries data.
// Blocks smaller than negotiated are legal MODE E (blockLenLimit is an upper
// bound), and from streams × blockSize bytes up the result is blockSize.
func jobSize(total int64, streams, blockSize int) int {
	share := (total + int64(streams) - 1) / int64(streams)
	if share < minJobSize {
		share = minJobSize
	}
	if share < int64(blockSize) {
		return int(share)
	}
	return blockSize
}

// blockHook is told of a MODE E block that a stream has sent or landed,
// control blocks included: the stream's index, the block's payload bytes
// (zero for a control block) and, on a send, how long the call that sent it
// took. The 112 performance markers and stream telemetry both ride it.
type blockHook func(stream int, n int64, took time.Duration)

// sendModeE streams the given file ranges over the (already secured)
// connections as MODE E blocks of jobSize bytes, numbered through the ranges
// in order. Stream i sends block i first, so every stream carries data when
// there are as many blocks as streams; after that each stream takes the next
// number no stream has taken once it has handed its last block to its
// connection, so a slow stream costs at most about one block of tail. When a
// stream fails the others stop at their next block. Connection 0 additionally
// carries the EOF block announcing how many EODs the receiver should expect.
// Neither costs a write of its own: the EOF leaves with the first block, and
// a stream's EOD is set on its last block when the stream can tell, before
// writing it, that no block is left — else it follows alone. onBlock, if
// non-nil, is told of every block sent, and of the flush that ends each
// stream as a block of no payload.
func sendModeE(conns []net.Conn, f dsi.File, ranges []Range, blockSize int, onBlock blockHook) error {
	if len(conns) == 0 {
		return errors.New("gridftp: no data connections")
	}
	if onBlock == nil {
		onBlock = func(int, int64, time.Duration) {}
	}
	size := int64(jobSize(totalLen(ranges), len(conns), blockSize))
	starts := make([]int64, len(ranges)+1) // starts[k]: the number of range k's first block
	for k, r := range ranges {
		starts[k+1] = starts[k] + (r.Len()+size-1)/size
	}
	blocks := starts[len(ranges)]
	var next atomic.Int64 // the next block no stream has taken
	next.Store(int64(len(conns)))

	send := func(i int, conn net.Conn) error {
		bw := newBlockWriter(conn, blockSize)
		defer bw.release()
		if i == 0 {
			start := time.Now()
			if err := bw.writeBlock(DescEOF, uint64(len(conns))); err != nil {
				return fmt.Errorf("gridftp: send EOF block: %w", err)
			}
			onBlock(i, 0, time.Since(start))
		}
		eod := false // the stream's EOD has been sent
		for g := int64(i); g < blocks; g = next.Add(1) - 1 {
			k := sort.Search(len(ranges), func(k int) bool { return starts[k+1] > g })
			off := ranges[k].Start + (g-starts[k])*size
			n := int(min(size, ranges[k].End-off))
			// next only grows: once every number is taken, this block is the
			// stream's last, and it carries the EOD.
			desc := byte(DescRestartable)
			if eod = next.Load() >= blocks; eod {
				desc |= DescEOD
			}
			start := time.Now()
			if err := bw.writeBlockAt(desc, f, off, n); err != nil {
				return err
			}
			onBlock(i, int64(n), time.Since(start))
		}
		start := time.Now()
		if !eod {
			if err := bw.writeBlock(DescEOD, 0); err != nil {
				return fmt.Errorf("gridftp: send EOD: %w", err)
			}
		}
		if err := bw.flush(); err != nil {
			return fmt.Errorf("gridftp: flush blocks: %w", err)
		}
		onBlock(i, 0, time.Since(start))
		return nil
	}
	var wg sync.WaitGroup
	errCh := make(chan error, len(conns))
	for i, conn := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := send(i, conn); err != nil {
				next.Store(blocks)
				errCh <- err
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// readAtFull fills buf from f at off. A file that ends sooner — one that
// shrank after its size was taken, say under a concurrent STOR — is an
// error: the rest of buf holds a pooled buffer's stale bytes, and sending or
// hashing them would report a copy that never happened.
func readAtFull(f io.ReaderAt, buf []byte, off int64) error {
	n, err := f.ReadAt(buf, off)
	if n == len(buf) {
		return nil
	}
	if err == nil || err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("gridftp: read %d of %d bytes at %d: %w", n, len(buf), off, err)
}

// recvResult reports what a receive attempt accomplished; Received is
// meaningful even on error (it seeds restart markers).
type recvResult struct {
	Received *RangeSet
	Err      error
}

// recvModeE accepts data connections from accept and reassembles blocks
// into f. It stops accepting once the EOF block announces the stream
// count; the stop channel passed to accept closes when the transfer has
// concluded so a blocked accept can bail out. Every block is judged before
// storage sees it: one whose offset + count passes math.MaxInt64, or an EOF
// that announces no stream or more than maxStreams (the most this end can
// have negotiated), fails the receive. onBlock, if non-nil, is told of every
// block once it has landed, with the stream index in accept order. A close
// of cancel (may be nil) aborts the receive — used when the control channel
// reports failure before or during the transfer.
func recvModeE(accept func(stop <-chan struct{}) (net.Conn, error), f dsi.File, existing *RangeSet, blockSize, maxStreams int, onBlock blockHook, cancel <-chan struct{}) recvResult {
	received := existing
	if received == nil {
		received = NewRangeSet()
	}
	var (
		mu       sync.Mutex
		expected = -1 // total streams, learned from the EOF block
		accepted = 0
		eods     = 0
		finished bool
		firstErr error
	)
	done := make(chan struct{})
	var closeOnce sync.Once
	finish := func() {
		closeOnce.Do(func() {
			mu.Lock()
			finished = true
			mu.Unlock()
			close(done)
		})
	}

	setErr := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		finish()
	}

	var activeConns []net.Conn // guarded by mu; closed on cancel
	if cancel != nil {
		go func() {
			select {
			case <-cancel:
				setErr(errors.New("gridftp: transfer canceled by control channel"))
				// Unblock handlers stuck reading connections the sender
				// will never use.
				mu.Lock()
				conns := append([]net.Conn(nil), activeConns...)
				mu.Unlock()
				for _, c := range conns {
					c.Close()
				}
			case <-done:
			}
		}()
	}

	limit := blockLenLimit(blockSize)
	var wg sync.WaitGroup
	handle := func(stream int, conn net.Conn) {
		defer wg.Done()
		// Backstop: the first block must arrive within a bounded window,
		// so a silent channel (peer gone, protocol desync) cannot park
		// this handler — and with it the whole transfer — forever.
		conn.SetReadDeadline(time.Now().Add(60 * time.Second))
		first := true
		// A direct conn lands each payload from its queue straight in
		// storage; any other reads the block into a leased buffer first.
		dc := direct(conn)
		var buf []byte
		var sink *blockSink
		if dc != nil {
			sink = sinks.Get().(*blockSink)
			defer sinks.Put(sink)
		} else {
			buf = lease.Get(blockSize)
			defer func() { lease.Put(buf) }()
		}
		for {
			var b Block
			var err error
			if dc != nil {
				b, err = readBlockHeader(conn, sink.hdr[:], limit)
			} else {
				b, buf, err = ReadBlock(conn, buf, limit)
			}
			if err != nil {
				setErr(fmt.Errorf("gridftp: data connection lost: %w", err))
				return
			}
			if b.EOF() && (b.Offset < 1 || b.Offset > uint64(maxStreams)) {
				setErr(fmt.Errorf("gridftp: EOF block announces %d streams, want 1 to %d", b.Offset, maxStreams))
				return
			}
			if b.Offset > math.MaxInt64 || b.Count > math.MaxInt64-b.Offset {
				setErr(fmt.Errorf("gridftp: block at offset %d of %d bytes ends past the largest file offset", b.Offset, b.Count))
				return
			}
			if b.EOF() {
				mu.Lock()
				expected = int(b.Offset)
				doneNow := eods == expected
				mu.Unlock()
				if doneNow {
					finish()
				}
			}
			if b.Count > 0 {
				off := int64(b.Offset)
				if dc != nil {
					err = sink.land(dc, f, off, int(b.Count))
				} else {
					_, err = f.WriteAt(b.Data, off)
				}
				switch {
				case err == nil:
				case dc != nil && sink.err == nil:
					setErr(fmt.Errorf("gridftp: data connection lost: %w", err))
					return
				default:
					setErr(fmt.Errorf("gridftp: write at %d: %w", b.Offset, err))
					return
				}
				// A block is claimed only once all of it has landed.
				received.Add(off, off+int64(b.Count))
			}
			if onBlock != nil {
				onBlock(stream, int64(b.Count), 0)
			}
			if first {
				conn.SetReadDeadline(time.Time{})
				first = false
			}
			if b.EOD() {
				mu.Lock()
				eods++
				doneNow := expected >= 0 && eods == expected
				mu.Unlock()
				if doneNow {
					finish()
				}
				return
			}
		}
	}

	// Acceptor: pull connections until we know the expected stream count
	// and have accepted that many, or an error/finish occurs.
	go func() {
		for {
			mu.Lock()
			enough := finished || (expected >= 0 && accepted >= expected)
			mu.Unlock()
			if enough {
				return
			}
			conn, err := accept(done)
			if err != nil {
				mu.Lock()
				fin := finished
				mu.Unlock()
				if !fin {
					// A bail-out after the transfer concluded is benign.
					setErr(fmt.Errorf("gridftp: accept data connection: %w", err))
				}
				return
			}
			mu.Lock()
			if finished {
				// Transfer already concluded; a late connection is spurious.
				mu.Unlock()
				return
			}
			stream := accepted
			accepted++
			activeConns = append(activeConns, conn)
			wg.Add(1)
			mu.Unlock()
			go handle(stream, conn)
		}
	}()

	<-done
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return recvResult{Received: received, Err: firstErr}
}

// preallocate passes a destination-size hint (from ALLO or the sender's
// announced size) to DSI files that support it, so block-at-a-time writes
// land in storage sized once up front instead of grown copy by copy.
func preallocate(f dsi.File, size int64) {
	if p, ok := f.(interface{ Preallocate(int64) }); ok && size > 0 {
		p.Preallocate(size)
	}
}

// sendStream writes the file range [offset, size) as a raw byte stream and
// half-closes the connection to signal EOF. On a direct conn the range goes
// from storage straight into the conn's chunks (sendFrom); on any other it
// loops through a leased buffer of the negotiated block size. A file that
// ends short of size fails the send.
func sendStream(conn net.Conn, f dsi.File, offset, size int64, blockSize int) error {
	if dc := direct(conn); dc != nil {
		if err := dc.sendFrom(&blockReader{f: f, off: offset, n: int(max(size-offset, 0))}); err != nil {
			return err
		}
		return closeWrite(conn)
	}
	buf := lease.Get(blockSize)
	defer lease.Put(buf)
	for off := offset; off < size; {
		n := int64(len(buf))
		if off+n > size {
			n = size - off
		}
		if err := readAtFull(f, buf[:n], off); err != nil {
			return err
		}
		if _, err := conn.Write(buf[:n]); err != nil {
			return err
		}
		off += n
	}
	return closeWrite(conn)
}

func closeWrite(conn net.Conn) error {
	if hc, ok := conn.(interface{ CloseWrite() error }); ok {
		return hc.CloseWrite()
	}
	return nil
}

// recvStream reads a raw byte stream into f starting at offset until EOF. A
// direct conn lands it in storage from its queue (landTo) through a sink
// with no block limit; any other loops through a leased buffer of the
// negotiated block size. A storage failure is reported ahead of what it did
// to the conn.
func recvStream(conn net.Conn, f dsi.File, offset int64, blockSize int) (int64, error) {
	if dc := direct(conn); dc != nil {
		s := &blockSink{f: f, off: offset, left: math.MaxInt}
		err := dc.landTo(s)
		if s.err != nil {
			err = s.err
		}
		return s.off - offset, err
	}
	buf := lease.Get(blockSize)
	defer lease.Put(buf)
	var total int64
	for {
		n, err := conn.Read(buf)
		if n > 0 {
			if _, werr := f.WriteAt(buf[:n], offset+total); werr != nil {
				return total, werr
			}
			total += int64(n)
		}
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}
