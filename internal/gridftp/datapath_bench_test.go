package gridftp

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"gridftp.dev/instant/internal/netsim"
)

// This file keeps the before/after of the MODE E fast-path work
// measurable now that the legacy block loop is gone from the DTP: the
// sender/receiver loops exist here in both their historical form (a fresh
// payload buffer and two writes per block) and the current form (pooled
// lease, batched/vectored blockWriter, pooled receive).

// sendBenchBlocks streams totalBytes of MODE E data blocks over conn,
// followed by EOD and an EOF announcing one stream, then half-closes.
// fast selects the pooled+vectored writer; legacy reproduces the
// pre-fast-path behavior (per-block allocation, header and payload as
// separate writes).
func sendBenchBlocks(conn net.Conn, totalBytes int64, blockSize int, fast bool) error {
	defer closeWrite(conn)
	var off int64
	if fast {
		pool := poolFor(blockSize)
		buf := pool.Lease()
		defer pool.Release(buf)
		bw := newBlockWriter(conn, blockSize)
		if err := bw.writeBlock(DescEOF, 0, 1, nil); err != nil {
			return err
		}
		for off < totalBytes {
			n := int64(blockSize)
			if rem := totalBytes - off; rem < n {
				n = rem
			}
			if err := bw.writeBlock(DescRestartable, uint64(n), uint64(off), buf[:n]); err != nil {
				return err
			}
			off += n
		}
		if err := bw.writeBlock(DescEOD, 0, 0, nil); err != nil {
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
		if err := WriteBlock(conn, &Block{Desc: DescRestartable, Count: uint64(n), Offset: uint64(off), Data: payload}); err != nil {
			return err
		}
		off += n
	}
	return WriteBlock(conn, &Block{Desc: DescEOD})
}

// recvBenchBlocks drains one sendBenchBlocks stream and returns the
// payload byte count. fast reuses one pooled buffer across blocks; legacy
// reads every block into a fresh allocation, as the receive loop did
// before the fast path.
func recvBenchBlocks(conn net.Conn, blockSize int, fast bool) (int64, error) {
	limit := blockLenLimit(blockSize)
	var buf []byte
	if fast {
		pool := poolFor(blockSize)
		buf = pool.Lease()
		defer func() { pool.Release(buf) }()
	}
	var total int64
	for {
		var b Block
		var err error
		if fast {
			b, buf, err = ReadBlock(conn, buf, limit)
		} else {
			b, _, err = ReadBlock(conn, nil, limit)
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
// receive allocation) and the fast-path form (pooled block buffers,
// batched/vectored writes, pooled receive). The fast/legacy delta is the
// fast-path PR's framing win with the protocol, crypto, and disk kept out
// of frame.
func BenchmarkE19DataPath(b *testing.B) {
	const totalBytes = 16 << 20
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
			for i := 0; i < b.N; i++ {
				src, dst, err := tc.pair()
				if err != nil {
					b.Fatal(err)
				}
				errCh := make(chan error, 1)
				go func() { errCh <- sendBenchBlocks(src, totalBytes, DefaultBlockSize, tc.fast) }()
				start := time.Now()
				got, err := recvBenchBlocks(dst, DefaultBlockSize, tc.fast)
				elapsed := time.Since(start)
				if err != nil {
					b.Fatal(err)
				}
				if serr := <-errCh; serr != nil {
					b.Fatal(serr)
				}
				if got != totalBytes {
					b.Fatalf("received %d bytes, want %d", got, totalBytes)
				}
				src.Close()
				dst.Close()
				b.ReportMetric(totalBytes/elapsed.Seconds()/1e6, "MB/s")
			}
		})
	}
}
