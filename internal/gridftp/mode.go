// Package gridftp implements the GridFTP protocol (GFD-R-P.020): server
// and client protocol interpreters, the data transfer process with MODE E
// extended block mode, parallel streams, striped transfers (SPAS/SPOR),
// restart markers, data channel authentication (DCAU), and the paper's
// Data Channel Security Context (DCSC) extension (§V).
package gridftp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
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
// the steady-state receive loop performs zero allocations per block. limit
// caps the accepted payload length — pass blockLenLimit(blockSize) for a
// negotiated session, or 0 for the absolute 1 GiB sanity cap — so a
// hostile header cannot force a giant allocation.
func ReadBlock(r io.Reader, buf []byte, limit uint64) (Block, []byte, error) {
	var hdr [blockHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Block{}, buf, err
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
		return Block{}, buf, fmt.Errorf("gridftp: block length %d exceeds negotiated limit %d", b.Count, limit)
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

// buffersWriter is the vectored-write capability: one call delivers several
// byte slices as a single write on the wire. netsim connections and the
// streamstats wrapper over them implement it; the TLS and integrity layers
// deliberately do not, so framing falls back to a single coalesced write
// there.
type buffersWriter interface {
	WriteBuffers(bufs [][]byte) (int64, error)
}

// vectorMin is the payload size above which a block is written vectored
// ([header, payload] in one call) instead of memcpy'd into the coalescing
// buffer. Below it the copy is cheaper than the per-vector bookkeeping.
const vectorMin = 8 * 1024

// batchCap is the coalescing buffer's capacity on a conn that takes
// vectored writes, where it carries only headers and blocks under vectorMin:
// small blocks batch until it fills, so a 4 KiB-block transfer issues one
// write per ~15 blocks instead of two per block.
const batchCap = 64 * 1024

// blockWriter frames MODE E blocks onto one data connection with as few
// writes as possible. Small blocks and headers coalesce into a scratch
// buffer (batched: consecutive small blocks share one write); payloads of
// vectorMin and up go out as [header, payload] via WriteBuffers when the
// connection supports it, net.Buffers (writev) on real TCP, and a single
// coalesced write otherwise — never the historical two-writes-per-block.
// The coalescing buffer is leased from the process pools (poolFor) and goes
// back with release.
type blockWriter struct {
	w    io.Writer
	vw   buffersWriter // non-nil: conn takes vectored writes natively
	tcp  *net.TCPConn  // non-nil: net.Buffers reaches writev
	buf  []byte        // coalescing buffer; len is the pending byte count
	vecs [3][]byte     // backing array for vectored [pending, hdr, payload] calls
	hdr  [blockHeaderLen]byte
}

// newBlockWriter leases a coalescing buffer sized by what it will carry. On a
// conn with vectored writes that is headers and blocks under vectorMin, so
// batchCap; on any other (PROT P's TLS, PROT S's integrityConn) it is a whole
// block of the negotiated size with its header, so a block is still one
// write — one record group — there. Sizing by the negotiated size, not a
// transfer's job size, keeps the pools to a handful of sizes per process.
func newBlockWriter(w io.Writer, blockSize int) *blockWriter {
	bw := &blockWriter{w: w}
	bw.vw, _ = w.(buffersWriter)
	bw.tcp, _ = w.(*net.TCPConn)
	capacity := batchCap
	if bw.vw == nil && bw.tcp == nil {
		capacity = max(batchCap, blockSize+blockHeaderLen)
	}
	bw.buf = poolFor(capacity).Lease()[:0]
	return bw
}

// release gives the coalescing buffer back to its pool; the writer is not
// used again. Every write has returned by then, and none keeps the buffer:
// a netsim conn and writev copy it before WriteBuffers returns, and TLS and
// integrityConn before Write returns.
func (bw *blockWriter) release() {
	buf := bw.buf[:cap(bw.buf)]
	bw.buf = nil
	poolFor(len(buf)).Release(buf)
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

// writeVectored sends [hdr, payload] without copying the payload, behind
// whatever is pending in the coalescing buffer, in one write.
func (bw *blockWriter) writeVectored(payload []byte) error {
	bw.vecs = [3][]byte{bw.buf, bw.hdr[:], payload}
	vecs := bw.vecs[:]
	if len(bw.buf) == 0 {
		vecs = vecs[1:]
	}
	bw.buf = bw.buf[:0]
	if bw.vw != nil {
		_, err := bw.vw.WriteBuffers(vecs)
		return err
	}
	nb := net.Buffers(vecs) // escapes: declared here, so only writev pays for it
	_, err := nb.WriteTo(bw.tcp)
	return err
}

// writeBlock frames one block. The payload may be reused by the caller as
// soon as writeBlock returns (vectored paths complete the write before
// returning; coalesced bytes are copied).
func (bw *blockWriter) writeBlock(desc byte, count, offset uint64, payload []byte) error {
	if len(payload) >= vectorMin && (bw.vw != nil || bw.tcp != nil) {
		putBlockHeader(bw.hdr[:], desc, count, offset)
		return bw.writeVectored(payload)
	}
	if len(bw.buf)+blockHeaderLen+len(payload) > cap(bw.buf) {
		if err := bw.flush(); err != nil {
			return err
		}
	}
	n := len(bw.buf)
	bw.buf = bw.buf[:n+blockHeaderLen]
	putBlockHeader(bw.buf[n:], desc, count, offset)
	bw.buf = append(bw.buf, payload...)
	return nil
}
