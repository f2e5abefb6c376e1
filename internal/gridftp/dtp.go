package gridftp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"gridftp.dev/instant/internal/dsi"
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
	// Deflate layers DEFLATE compression over each data channel
	// ("OPTS RETR Deflate=1;"). Both ends of the session see the same
	// negotiation, so their channel pools flush in lockstep and every
	// channel is wrapped symmetrically.
	Deflate bool
}

// Normalize fills defaults.
func (s ChannelSpec) Normalize() ChannelSpec {
	if s.Mode == 0 {
		s.Mode = ModeStream
	}
	if s.Parallelism <= 0 {
		s.Parallelism = 1
	}
	if s.Mode == ModeStream {
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
// goes out as one vectored write (vectorMin). Cutting finer buys nothing: a
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

// sendModeE streams the given file ranges over the (already secured)
// connections as MODE E blocks of jobSize bytes. Connection 0 additionally
// carries the EOF block announcing how many EODs the receiver should expect.
// onBytes, if non-nil, is invoked per sent block with the stream index and
// byte count (the performance-marker emitter samples the resulting counters).
func sendModeE(conns []net.Conn, f dsi.File, ranges []Range, blockSize int, onBytes func(stream int, n int64)) error {
	if len(conns) == 0 {
		return errors.New("gridftp: no data connections")
	}
	size := jobSize(totalLen(ranges), len(conns), blockSize)
	type job struct {
		off int64
		n   int
	}
	jobs := make(chan job, len(conns)*2)
	go func() {
		defer close(jobs)
		for _, r := range ranges {
			for off := r.Start; off < r.End; off += int64(size) {
				n := int64(size)
				if off+n > r.End {
					n = r.End - off
				}
				jobs <- job{off, int(n)}
			}
		}
	}()

	pool := poolFor(blockSize)
	var wg sync.WaitGroup
	errCh := make(chan error, len(conns))
	for i, conn := range conns {
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			buf := pool.Lease()
			defer pool.Release(buf)
			bw := newBlockWriter(conn, size)
			if i == 0 {
				if err := bw.writeBlock(DescEOF, 0, uint64(len(conns)), nil); err != nil {
					errCh <- fmt.Errorf("gridftp: send EOF block: %w", err)
					return
				}
			}
			for j := range jobs {
				data := buf[:j.n]
				if _, err := f.ReadAt(data, j.off); err != nil && err != io.EOF {
					errCh <- fmt.Errorf("gridftp: read at %d: %w", j.off, err)
					return
				}
				if err := bw.writeBlock(DescRestartable, uint64(j.n), uint64(j.off), data); err != nil {
					errCh <- fmt.Errorf("gridftp: send block at %d: %w", j.off, err)
					return
				}
				if onBytes != nil {
					onBytes(i, int64(j.n))
				}
			}
			if err := bw.writeBlock(DescEOD, 0, 0, nil); err != nil {
				errCh <- fmt.Errorf("gridftp: send EOD: %w", err)
				return
			}
			if err := bw.flush(); err != nil {
				errCh <- fmt.Errorf("gridftp: flush blocks: %w", err)
			}
		}(i, conn)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
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
// concluded so a blocked accept can bail out. onBytes, if non-nil, is
// invoked whenever new data lands, with the stream index (accept order)
// and byte count — the performance-marker emitter samples the resulting
// per-stripe counters. A close of cancel (may be nil) aborts the receive —
// used when the control channel reports failure before or during the
// transfer.
func recvModeE(accept func(stop <-chan struct{}) (net.Conn, error), f dsi.File, existing *RangeSet, blockSize int, onBytes func(stream int, n int64), cancel <-chan struct{}) recvResult {
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

	pool := poolFor(blockSize)
	limit := blockLenLimit(blockSize)
	var wg sync.WaitGroup
	handle := func(stream int, conn net.Conn) {
		defer wg.Done()
		// Backstop: the first block must arrive within a bounded window,
		// so a silent channel (peer gone, protocol desync) cannot park
		// this handler — and with it the whole transfer — forever.
		type deadliner interface{ SetReadDeadline(time.Time) error }
		dl, hasDeadline := conn.(deadliner)
		if hasDeadline {
			dl.SetReadDeadline(time.Now().Add(60 * time.Second))
		}
		first := true
		buf := pool.Lease()
		defer func() { pool.Release(buf) }()
		for {
			b, nbuf, err := ReadBlock(conn, buf, limit)
			buf = nbuf
			if err == nil && first && hasDeadline {
				dl.SetReadDeadline(time.Time{})
				first = false
			}
			if err != nil {
				setErr(fmt.Errorf("gridftp: data connection lost: %w", err))
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
				if _, err := f.WriteAt(b.Data, int64(b.Offset)); err != nil {
					setErr(fmt.Errorf("gridftp: write at %d: %w", b.Offset, err))
					return
				}
				received.Add(int64(b.Offset), int64(b.Offset)+int64(b.Count))
				if onBytes != nil {
					onBytes(stream, int64(b.Count))
				}
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

// osFiler is implemented by DSI files backed by a real *os.File (posix
// storage); the stream-mode paths use it to reach the kernel's
// sendfile/splice fast paths instead of shuttling through a user buffer.
type osFiler interface {
	OSFile() *os.File
}

// sendStream writes the file range [offset, size) as a raw byte stream and
// half-closes the connection to signal EOF. When the file is *os.File-
// backed and the connection (or its counting wrappers) forwards
// io.ReaderFrom to a real TCP socket, the copy runs zero-copy via
// sendfile; otherwise it loops through a pooled buffer of the negotiated
// block size.
func sendStream(conn net.Conn, f dsi.File, offset, size int64, blockSize int) error {
	if rf, ok := conn.(io.ReaderFrom); ok {
		if of, ok := f.(osFiler); ok && size > offset {
			if _, err := of.OSFile().Seek(offset, io.SeekStart); err == nil {
				lr := &io.LimitedReader{R: of.OSFile(), N: size - offset}
				if _, err := rf.ReadFrom(lr); err != nil {
					return err
				}
				return closeWrite(conn)
			}
		}
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	pool := poolFor(blockSize)
	buf := pool.Lease()
	defer pool.Release(buf)
	for off := offset; off < size; {
		n := int64(len(buf))
		if off+n > size {
			n = size - off
		}
		if _, err := f.ReadAt(buf[:n], off); err != nil && err != io.EOF {
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

// recvStream reads a raw byte stream into f starting at offset until EOF.
// *os.File-backed DSI files receive via (*os.File).ReadFrom — splice/
// copy_file_range when the kernel supports it; everything else loops
// through a pooled buffer of the negotiated block size.
func recvStream(conn net.Conn, f dsi.File, offset int64, blockSize int) (int64, error) {
	if of, ok := f.(osFiler); ok {
		if _, err := of.OSFile().Seek(offset, io.SeekStart); err == nil {
			return io.Copy(of.OSFile(), conn)
		}
	}
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	pool := poolFor(blockSize)
	buf := pool.Lease()
	defer pool.Release(buf)
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
