package gridftp

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"gridftp.dev/instant/internal/lease"
	"gridftp.dev/instant/internal/netsim"
)

// This file keeps the before/after of the MODE E fast-path work
// measurable now that the legacy block loop is gone from the DTP: the
// sender/receiver loops exist here in both their historical form (a fresh
// payload buffer per block, read from storage and sent as two writes, and a
// fresh receive buffer per block, landed in storage) and the current form
// (blockWriter, leased receive). On a conn that takes ReadFrom and WriteTo
// (netsim) the current form is the engine's direct path: each block goes
// from storage into the conn's chunk and from the chunk into storage, one
// copy per end, where a buffered conn (TCP) reads the block into the
// coalescing buffer behind its header and receives it into a lease. The storage is a
// blockRing, so both forms copy the same cache-hot bytes and the disk stays
// out of frame.

// blockRing is storage one block long that every offset maps into.
type blockRing []byte

func (r blockRing) ReadAt(p []byte, off int64) (int, error) {
	return copy(p, r[off%int64(len(r)):]), nil
}

func (r blockRing) WriteAt(p []byte, off int64) (int, error) {
	return copy(r[off%int64(len(r)):], p), nil
}

// sendBenchBlocks streams totalBytes of src as MODE E data blocks over conn,
// behind an EOF announcing one stream and followed by EOD, then half-closes.
// fast selects the engine's blockWriter; legacy reproduces the
// pre-fast-path behavior (per-block allocation the payload is read into,
// header and payload as separate writes).
func sendBenchBlocks(conn net.Conn, src io.ReaderAt, totalBytes int64, blockSize int, fast bool) error {
	defer closeWrite(conn)
	var off int64
	if fast {
		bw := newBlockWriter(conn, blockSize)
		defer bw.release()
		if err := bw.writeBlock(DescEOF, 1); err != nil {
			return err
		}
		for off < totalBytes {
			n := int64(blockSize)
			if rem := totalBytes - off; rem < n {
				n = rem
			}
			if err := bw.writeBlockAt(DescRestartable, src, off, int(n)); err != nil {
				return err
			}
			off += n
		}
		if err := bw.writeBlock(DescEOD, 0); err != nil {
			return err
		}
		return bw.flush()
	}
	if err := WriteBlock(conn, &Block{Desc: DescEOF, Offset: 1}); err != nil {
		return err
	}
	for off < totalBytes {
		n := int64(blockSize)
		if rem := totalBytes - off; rem < n {
			n = rem
		}
		payload := make([]byte, n) // the historical per-block allocation
		if err := readAtFull(src, payload, off); err != nil {
			return err
		}
		if err := WriteBlock(conn, &Block{Desc: DescRestartable, Count: uint64(n), Offset: uint64(off), Data: payload}); err != nil {
			return err
		}
		off += n
	}
	return WriteBlock(conn, &Block{Desc: DescEOD})
}

// recvBenchBlocks drains one sendBenchBlocks stream into dst and returns the
// payload byte count. fast lands each payload from the conn's queue (a
// direct conn) or from one leased buffer reused across blocks; legacy reads
// every block into a fresh allocation, as the receive loop did before the
// fast path, and lands it from there.
func recvBenchBlocks(conn net.Conn, dst io.WriterAt, blockSize int, fast bool) (int64, error) {
	limit := blockLenLimit(blockSize)
	var buf []byte
	var dc directConn
	sink := new(blockSink)
	if fast {
		dc = direct(conn)
		buf = lease.Get(blockSize)
		defer func() { lease.Put(buf) }()
	}
	var total int64
	for {
		var b Block
		var err error
		switch {
		case dc != nil:
			if b, err = readBlockHeader(conn, sink.hdr[:], limit); err == nil && b.Count > 0 {
				err = sink.land(dc, dst, int64(b.Offset), int(b.Count))
			}
		case fast:
			if b, buf, err = ReadBlock(conn, buf, limit); err == nil {
				_, err = dst.WriteAt(b.Data, int64(b.Offset))
			}
		default:
			if b, _, err = ReadBlock(conn, nil, limit); err == nil {
				_, err = dst.WriteAt(b.Data, int64(b.Offset))
			}
		}
		if err != nil {
			if err == io.EOF {
				return total, nil
			}
			return total, fmt.Errorf("gridftp: bench recv: %w", err)
		}
		total += int64(b.Count)
		if b.EOD() {
			return total, nil
		}
	}
}

// connPair connects src to a listener and returns both ends.
func connPair(l net.Listener, dial func() (net.Conn, error)) (src, dst net.Conn, err error) {
	defer l.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	if src, err = dial(); err != nil {
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		src.Close()
		return nil, nil, a.err
	}
	return src, a.c, nil
}

func tcpPair() (net.Conn, net.Conn, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	return connPair(l, func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) })
}

func simPair() (net.Conn, net.Conn, error) {
	nw := netsim.NewNetwork()
	nw.SetDefaultLink(netsim.LinkParams{}) // unshaped: framing is the bottleneck
	l, err := nw.Listen("dst", DefaultPort)
	if err != nil {
		return nil, nil, err
	}
	return connPair(l, func() (net.Conn, error) { return nw.Dial("src", l.Addr().String()) })
}

// BenchmarkE19DataPath isolates the MODE E framing data path: one sender
// streaming blocks to one receiver over a real TCP loopback socket and
// over an unshaped netsim conn, in the historical form (fresh payload
// buffer per block, header and payload as separate writes, per-block
// receive allocation) and the fast-path form (blockWriter's one write per
// block, leased receive). The fast/legacy delta is the fast-path PR's
// framing win with the protocol, crypto, and disk kept out of frame. The
// connection's set-up and close are out of frame too: ns/op and MB/s are
// the blocks alone, MB/s over every iteration's receive.
func BenchmarkE19DataPath(b *testing.B) {
	const totalBytes = 16 << 20
	src, dst := make(blockRing, DefaultBlockSize), make(blockRing, DefaultBlockSize)
	for _, tc := range []struct {
		name string
		pair func() (net.Conn, net.Conn, error)
		fast bool
	}{
		{"tcp-legacy", tcpPair, false},
		{"tcp-fast", tcpPair, true},
		{"netsim-legacy", simPair, false},
		{"netsim-fast", simPair, true},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var received time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer() // the listener, dial and accept are not the data path
				from, to, err := tc.pair()
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				errCh := make(chan error, 1)
				go func() { errCh <- sendBenchBlocks(from, src, totalBytes, DefaultBlockSize, tc.fast) }()
				start := time.Now()
				got, err := recvBenchBlocks(to, dst, DefaultBlockSize, tc.fast)
				received += time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				if serr := <-errCh; serr != nil {
					b.Fatal(serr)
				}
				if got != totalBytes {
					b.Fatalf("received %d bytes, want %d", got, totalBytes)
				}
				b.StopTimer()
				from.Close()
				to.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.N)*totalBytes/received.Seconds()/1e6, "MB/s")
		})
	}
}
