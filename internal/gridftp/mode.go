// Package gridftp implements the GridFTP protocol (GFD-R-P.020): server
// and client protocol interpreters, the data transfer process with MODE E
// extended block mode, parallel streams, striped transfers (SPAS/SPOR),
// restart markers, data channel authentication (DCAU), and the paper's
// Data Channel Security Context (DCSC) extension (§V).
package gridftp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"gridftp.dev/instant/internal/lease"
	"gridftp.dev/instant/internal/netsim"
)

// MODE E block descriptor bits (GridFTP extended block mode).
const (
	// DescEOD marks the final block on one data connection.
	DescEOD = 0x08
	// DescEOF carries the expected end-of-data-connection count in the
	// offset field; exactly one stream per transfer sends it.
	DescEOF = 0x40
	// DescRestartable is set on ordinary data blocks (they may be
	// restarted); informational in this implementation.
	DescRestartable = 0x20
)

// blockHeaderLen is descriptor(1) + count(8) + offset(8).
const blockHeaderLen = 17

// DefaultBlockSize is the MODE E payload size per block. Globus uses
// 256 KiB by default; the ablation bench sweeps this.
const DefaultBlockSize = 256 * 1024

// maxBlockLen is the absolute sanity cap on a block payload, used only
// when the caller has no negotiated block size to bound by.
const maxBlockLen = 1 << 30

// blockLenSlack is added to the negotiated block size when validating an
// incoming block's length: the peer negotiated the same size, but a little
// headroom tolerates off-by-rounding senders without letting a hostile
// header force a giant allocation.
const blockLenSlack = 64 * 1024

// blockLenLimit returns the payload-length cap for a session that
// negotiated the given block size.
func blockLenLimit(blockSize int) uint64 {
	if blockSize <= 0 {
		return maxBlockLen
	}
	return uint64(blockSize) + blockLenSlack
}

// Block is one MODE E extended-block-mode block.
type Block struct {
	Desc   byte
	Count  uint64 // payload length, or 0 for pure control blocks
	Offset uint64 // file offset, or EOD-count for EOF blocks
	Data   []byte
}

// EOD reports whether this block ends its data connection.
func (b *Block) EOD() bool { return b.Desc&DescEOD != 0 }

// EOF reports whether this block carries the stream-count announcement.
func (b *Block) EOF() bool { return b.Desc&DescEOF != 0 }

// putBlockHeader renders the 17-byte MODE E header into hdr.
func putBlockHeader(hdr []byte, desc byte, count, offset uint64) {
	hdr[0] = desc
	binary.BigEndian.PutUint64(hdr[1:9], count)
	binary.BigEndian.PutUint64(hdr[9:17], offset)
}

// WriteBlock writes one block to w as two writes (header, then payload).
// The data path uses blockWriter instead, which batches and vectorizes;
// this remains the simple one-shot form for control blocks and tests.
func WriteBlock(w io.Writer, b *Block) error {
	var hdr [blockHeaderLen]byte
	putBlockHeader(hdr[:], b.Desc, b.Count, b.Offset)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(b.Data) > 0 {
		if _, err := w.Write(b.Data); err != nil {
			return err
		}
	}
	return nil
}

// ReadBlock reads one block from r into buf (grown if needed) and returns
// it by value. The returned block's Data aliases buf, so with a pooled buf
// the steady-state receive loop performs zero allocations per block: the
// header is read into buf too, ahead of the payload that overwrites it (a
// header array of its own would escape through io.Reader, one allocation a
// block). limit caps the accepted payload length — pass
// blockLenLimit(blockSize) for a negotiated session, or 0 for the absolute
// 1 GiB sanity cap — so a hostile header cannot force a giant allocation.
func ReadBlock(r io.Reader, buf []byte, limit uint64) (Block, []byte, error) {
	if cap(buf) < blockHeaderLen {
		buf = make([]byte, blockHeaderLen)
	}
	b, err := readBlockHeader(r, buf[:blockHeaderLen], limit)
	if err != nil {
		return Block{}, buf, err
	}
	if b.Count > 0 {
		if uint64(cap(buf)) < b.Count {
			buf = make([]byte, b.Count)
		}
		data := buf[:b.Count]
		if _, err := io.ReadFull(r, data); err != nil {
			return Block{}, buf, fmt.Errorf("gridftp: short block payload: %w", err)
		}
		b.Data = data
	}
	return b, buf, nil
}

// readBlockHeader reads a block's header into hdr and refuses a payload
// length past limit (0: the absolute 1 GiB sanity cap).
func readBlockHeader(r io.Reader, hdr []byte, limit uint64) (Block, error) {
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Block{}, err
	}
	b := Block{
		Desc:   hdr[0],
		Count:  binary.BigEndian.Uint64(hdr[1:9]),
		Offset: binary.BigEndian.Uint64(hdr[9:17]),
	}
	if limit == 0 {
		limit = maxBlockLen
	}
	if b.Count > limit {
		return Block{}, fmt.Errorf("gridftp: block length %d exceeds negotiated limit %d", b.Count, limit)
	}
	return b, nil
}

// directConn is the direct data path: a conn that moves bytes between
// storage and its own queue with no buffer of its own between them, one copy
// per end. sendFrom queues r's bytes straight from storage into the conn's
// chunks; landTo hands what arrives straight to s, which writes it into
// storage. MODE E takes it a block at a time and MODE S for the whole file
// range; direct decides which conns have it.
type directConn interface {
	sendFrom(r *blockReader) error
	landTo(s *blockSink) error
}

// simConn is netsim's direct path: ReadFrom, the simulated sendfile(2), and
// WriteTo, the simulated splice(2). Either ends with the reader's or the
// sink's own error when storage fails.
type simConn struct{ *netsim.Conn }

func (c simConn) sendFrom(r *blockReader) error { _, err := c.ReadFrom(r); return err }
func (c simConn) landTo(s *blockSink) error     { _, err := c.WriteTo(s); return err }

// direct returns conn's direct path, or nil when it has none: TLS and the
// PROT S integrity frames transform the bytes, and a TCP socket's ReadFrom
// and WriteTo copy through a buffer for anything but a file or a socket. A
// conn that is a directConn itself is its own path.
func direct(conn any) directConn {
	switch c := conn.(type) {
	case *netsim.Conn:
		return simConn{c}
	case directConn:
		return c
	}
	return nil
}

// blockSink lands bytes in a file as a direct conn hands them over (landTo),
// one copy from the conn's queue into storage, and takes nothing past left:
// in MODE E the next header stays queued for the next read. MODE E's sinks
// are pooled (sinks) as the buffered path's receive buffers are leased: a
// sink is a struct around its header array, not a byte buffer, so it has a
// pool of its own.
type blockSink struct {
	hdr  [blockHeaderLen]byte // the stream's header buffer
	f    io.WriterAt
	off  int64
	left int
	err  error // the storage failure that ended the block
}

var sinks = sync.Pool{New: func() any { return new(blockSink) }}

// errBlockLanded ends a landTo once the block's last byte is in storage.
var errBlockLanded = errors.New("gridftp: block landed")

func (s *blockSink) Write(p []byte) (int, error) {
	k, err := s.f.WriteAt(p[:min(len(p), s.left)], s.off)
	s.off += int64(k)
	s.left -= k
	if err != nil {
		s.err = err
		return k, err
	}
	if s.left == 0 {
		return k, errBlockLanded
	}
	return k, nil
}

// land moves the n-byte payload of the block at off from dc into f. It
// fails unless all of it landed: with the storage error (s.err) if storage
// refused, else as a short payload.
func (s *blockSink) land(dc directConn, f io.WriterAt, off int64, n int) error {
	s.f, s.off, s.left, s.err = f, off, n, nil
	err := dc.landTo(s)
	s.f = nil
	switch {
	case s.left == 0:
		return nil
	case s.err != nil:
		return s.err
	case err == nil:
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("gridftp: short block payload: %w", err)
}

// vectorMin is the payload size from which a block goes out behind its
// header in one call from storage into a direct conn's chunk (sendFrom),
// instead of being read into the coalescing buffer. Below it the copy is
// cheaper than the per-call bookkeeping.
const vectorMin = 8 * 1024

// batchCap is the coalescing buffer's capacity on a direct conn, whose
// payloads of vectorMin and up bypass it, where it carries only headers and
// blocks under vectorMin: small blocks batch until it fills, so a 4 KiB-block
// transfer issues one write per ~15 blocks instead of two per block.
const batchCap = 64 * 1024

// blockWriter frames MODE E blocks onto one data connection with as few
// writes and copies as possible. Blocks are read from storage into a
// coalescing buffer behind their headers (batched: consecutive small blocks
// share one write), except on a direct conn (netsim), where a payload of
// vectorMin and up goes from storage straight into the conn's chunk behind
// its header, one copy (writeBlockAt). On every other conn (PROT P's TLS,
// PROT S's integrityConn, TCP) the buffer holds a whole block and two
// headers, so a block is one write and one copy into the buffer, and a
// control block rides with the block beside it: the EOF ahead of stream 0's
// first, an EOD behind a stream's last. The coalescing buffer
// is leased (internal/lease) and goes back with release.
type blockWriter struct {
	w   io.Writer
	dc  directConn  // non-nil: the conn's direct path
	buf []byte      // coalescing buffer; len is the pending byte count
	rd  blockReader // the block writeBlockAt hands dc
}

// newBlockWriter leases a coalescing buffer sized by what it will carry. On a
// direct conn that is headers and blocks under vectorMin, so batchCap; on
// any other it is a whole block of the negotiated size with its header and
// one control block's, so a block is still one write — one record group
// under TLS — there, the EOF or EOD beside it included. The lease is that
// size's class, so the buffer may hold more; it batches up to its capacity.
func newBlockWriter(w io.Writer, blockSize int) *blockWriter {
	bw := &blockWriter{w: w, dc: direct(w)}
	capacity := batchCap
	if bw.dc == nil {
		capacity = max(batchCap, blockSize+2*blockHeaderLen)
	}
	bw.buf = lease.Get(capacity)[:0]
	return bw
}

// release gives the leased buffer back; the writer is not used again. Every
// write has returned by then, and none keeps the buffer: a netsim conn
// copies it before its sendFrom or Write returns, and TLS, integrityConn and
// TCP before Write returns.
func (bw *blockWriter) release() {
	lease.Put(bw.buf)
	bw.buf = nil
}

// flush writes any batched bytes as a single write.
func (bw *blockWriter) flush() error {
	if len(bw.buf) == 0 {
		return nil
	}
	_, err := bw.w.Write(bw.buf)
	bw.buf = bw.buf[:0]
	return err
}

// writeBlock frames a control block, one with no payload: the EOF block,
// whose offset is the stream count, or an EOD. It is batched ahead of what
// follows.
func (bw *blockWriter) writeBlock(desc byte, offset uint64) error {
	if len(bw.buf)+blockHeaderLen > cap(bw.buf) {
		if err := bw.flush(); err != nil {
			return err
		}
	}
	n := len(bw.buf)
	bw.buf = bw.buf[:n+blockHeaderLen]
	putBlockHeader(bw.buf[n:], desc, 0, offset)
	return nil
}

// writeBlockAt frames one block whose payload is the n bytes of f at off. On
// a direct conn, a payload of vectorMin and up goes from storage straight
// into the chunk, behind whatever is batched and the header, in one write.
// Otherwise it is read from storage into the coalescing buffer behind its
// header, after a flush if it does not fit behind what is batched; the
// buffer holds a whole block (newBlockWriter).
// A file that ends short of the block fails it, as readAtFull does, and
// nothing of the block is sent; a failed write is wrapped with the block's
// offset.
func (bw *blockWriter) writeBlockAt(desc byte, f io.ReaderAt, off int64, n int) error {
	straight := bw.dc != nil && n >= vectorMin
	need := blockHeaderLen
	if !straight {
		need += n
	}
	if len(bw.buf)+need > cap(bw.buf) {
		if err := bw.flush(); err != nil {
			return fmt.Errorf("gridftp: send block at %d: %w", off, err)
		}
	}
	k := len(bw.buf)
	bw.buf = bw.buf[:k+need]
	putBlockHeader(bw.buf[k:], desc, uint64(n), uint64(off))
	if !straight {
		if err := readAtFull(f, bw.buf[k+blockHeaderLen:], off); err != nil {
			bw.buf = bw.buf[:k]
			return err
		}
		return nil
	}
	bw.rd = blockReader{head: bw.buf, f: f, off: off, n: n}
	bw.buf = bw.buf[:0]
	err := bw.dc.sendFrom(&bw.rd)
	if rerr := bw.rd.err; rerr != nil {
		return rerr
	}
	if err != nil {
		return fmt.Errorf("gridftp: send block at %d: %w", off, err)
	}
	return nil
}

// blockReader is what a direct conn's sendFrom takes: in MODE E one block,
// the batched bytes and the header, then n bytes of f from off, read into
// the conn's chunk; in MODE S the file range alone. It states its length
// (Len), so the conn sizes its chunks for all of it.
type blockReader struct {
	head []byte
	f    io.ReaderAt
	off  int64
	n    int
	err  error // the storage failure that ended the block
}

// Len is what is left of the block.
func (r *blockReader) Len() int { return len(r.head) + r.n }

func (r *blockReader) Read(p []byte) (int, error) {
	k := copy(p, r.head)
	r.head = r.head[k:]
	if m := min(len(p)-k, r.n); m > 0 {
		if err := readAtFull(r.f, p[k:k+m], r.off); err != nil {
			r.err = err
			return k, err
		}
		r.off += int64(m)
		r.n -= m
		k += m
	}
	if k == 0 {
		return 0, io.EOF
	}
	return k, nil
}
