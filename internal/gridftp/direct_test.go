package gridftp

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/streamstats"
)

// simPipe returns the two ends of a conn on an unshaped netsim link: conns
// that take ReadFrom and WriteTo, where net.Pipe's take neither.
func simPipe(t testing.TB, nw *netsim.Network) (net.Conn, net.Conn) {
	t.Helper()
	l, err := nw.Listen("recv", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	c, err := nw.Dial("send", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s := <-accepted
	if s == nil {
		t.Fatal("accept failed")
	}
	return c, s
}

// TestTruncatedBlockFailsTheReceive: a header that announces 1,000 bytes,
// followed by 500 and a close, fails the receive, and the received ranges —
// what restart markers claim — hold the whole block before it and nothing of
// the truncated one, on netsim conns (the payload moves by landTo) and on
// net.Pipe (through a buffer).
func TestTruncatedBlockFailsTheReceive(t *testing.T) {
	frame := func(desc byte, count, offset uint64, payload []byte) []byte {
		b := make([]byte, blockHeaderLen+len(payload))
		putBlockHeader(b, desc, count, offset)
		copy(b[blockHeaderLen:], payload)
		return b
	}
	wire := bytes.Join([][]byte{
		frame(DescEOF, 0, 1, nil),
		frame(DescRestartable, 100, 0, pattern(100)),
		frame(DescRestartable, 1000, 100, nil), pattern(500),
	}, nil)
	for _, tc := range []struct {
		name string
		pipe func() (net.Conn, net.Conn)
	}{
		{"netsim", func() (net.Conn, net.Conn) { return simPipe(t, netsim.NewNetwork()) }},
		{"net.Pipe", net.Pipe},
	} {
		t.Run(tc.name, func(t *testing.T) {
			send, recv := tc.pipe()
			if got, want := direct(recv) != nil, tc.name == "netsim"; got != want {
				t.Fatalf("the receive takes the direct path: %v, want %v", got, want)
			}
			go func() {
				send.Write(wire)
				send.Close()
			}()
			served := false
			accept := func(stop <-chan struct{}) (net.Conn, error) {
				if !served {
					served = true
					return recv, nil
				}
				<-stop
				return nil, errors.New("no further data connection")
			}
			dst := dsi.NewBufferFile(nil)
			res := recvModeE(accept, dst, nil, DefaultBlockSize, 1, nil, nil)
			recv.Close()
			if res.Err == nil {
				t.Fatal("a receive whose last block was cut short succeeded")
			}
			if got := res.Received.Ranges(); len(got) != 1 || got[0] != (Range{0, 100}) {
				t.Fatalf("received ranges %v after a truncated block at 100, want [0, 100) alone (%v)", got, res.Err)
			}
		})
	}
}

// TestDirectBlocksAllocateNothing: on netsim conns a block goes from storage
// into the conn's chunk (sendFrom) and from the chunk into storage (landTo)
// without an allocation, in either direction, and so does telling a live
// stream-telemetry record of each block sent and landed. One goroutine
// queues eight 64 KiB blocks and then lands them, so the count is the
// blocks' own.
func TestDirectBlocksAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	const blocks, n = 8, 64 << 10
	send, recv := simPipe(t, netsim.NewNetwork())
	defer send.Close()
	defer recv.Close()
	src := dsi.NewBufferFile(pattern(blocks * n))
	dst := dsi.NewBufferFile(make([]byte, blocks*n))
	bw := newBlockWriter(send, n)
	defer bw.release()
	if bw.dc == nil {
		t.Fatal("a netsim conn does not take the direct send")
	}
	dc := direct(recv)
	if dc == nil {
		t.Fatal("a netsim conn does not take the direct receive")
	}
	sink := sinks.Get().(*blockSink)
	defer sinks.Put(sink)
	reg := streamstats.New(streamstats.Options{Obs: obs.Nop()})
	sent, landed := reg.Begin("sent", "test"), reg.Begin("landed", "test")
	sent.Stream(0, send)
	landed.Stream(0, recv)
	run := func() {
		for i := 0; i < blocks; i++ {
			start := time.Now()
			if err := bw.writeBlockAt(DescRestartable, src, int64(i*n), n); err != nil {
				t.Fatal(err)
			}
			sent.Tell(0, n, time.Since(start))
		}
		for i := 0; i < blocks; i++ {
			b, err := readBlockHeader(recv, sink.hdr[:], blockLenLimit(n))
			if err != nil {
				t.Fatal(err)
			}
			if err := sink.land(dc, dst, int64(b.Offset), int(b.Count)); err != nil {
				t.Fatal(err)
			}
			landed.Tell(0, int64(b.Count), 0)
		}
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("%d direct blocks sent, received and told cost %.1f allocations, want 0", blocks, allocs)
	}
	// AllocsPerRun runs once to warm up, then 20 times.
	for _, th := range reg.Health() {
		if got, want := th.Streams[0].Bytes, int64(21*blocks*n); got != want {
			t.Errorf("%s stream counts %d bytes, want %d", th.Label, got, want)
		}
	}
	if !bytes.Equal(dst.Bytes(), src.Bytes()) {
		t.Fatal("the landed blocks differ from the file")
	}
}

// recordingConn keeps a copy of every write it is handed, as a conn with no
// direct path (TLS, integrityConn, TCP) puts each on the wire.
type recordingConn struct{ writes [][]byte }

func (c *recordingConn) Write(p []byte) (int, error) {
	c.writes = append(c.writes, bytes.Clone(p))
	return len(p), nil
}

// TestBufferedBlocksAreOneWriteEach: on a conn with no direct path each
// block is read from storage into the coalescing buffer behind its header
// and goes out as one write of exactly its framing, and a control block rides
// in the write beside it: the EOF ahead of the first block, an EOD behind
// the last. A file that ends short of a block fails it, and nothing of the
// block is sent; what was batched ahead of it still is.
func TestBufferedBlocksAreOneWriteEach(t *testing.T) {
	const blocks, n = 3, DefaultBlockSize
	data := pattern(blocks * n)
	src := dsi.NewBufferFile(data)
	c := &recordingConn{}
	bw := newBlockWriter(c, n)
	defer bw.release()
	frame := func(desc byte, count, offset uint64, payload []byte) []byte {
		b := make([]byte, blockHeaderLen, blockHeaderLen+len(payload))
		putBlockHeader(b, desc, count, offset)
		return append(b, payload...)
	}
	block := func(i int) []byte {
		return frame(DescRestartable, n, uint64(i*n), data[i*n:(i+1)*n])
	}
	if err := bw.writeBlock(DescEOF, 1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks; i++ {
		if err := bw.writeBlockAt(DescRestartable, src, int64(i*n), n); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.writeBlock(DescEOD, 0); err != nil {
		t.Fatal(err)
	}
	if err := bw.flush(); err != nil {
		t.Fatal(err)
	}
	if err := bw.writeBlock(DescEOF, 1); err != nil {
		t.Fatal(err)
	}
	err := bw.writeBlockAt(DescRestartable, src, blocks*n-100, n)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a block past the end of the file: %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if err := bw.flush(); err != nil {
		t.Fatal(err)
	}
	want := [][]byte{
		append(frame(DescEOF, 0, 1, nil), block(0)...),
		block(1),
		append(block(2), frame(DescEOD, 0, 0, nil)...),
		frame(DescEOF, 0, 1, nil),
	}
	if len(c.writes) != len(want) {
		t.Fatalf("%d writes, want %d: one per block, control blocks riding along", len(c.writes), len(want))
	}
	for i := range want {
		if !bytes.Equal(c.writes[i], want[i]) {
			t.Fatalf("write %d is %d bytes that differ from the %d of its blocks", i, len(c.writes[i]), len(want[i]))
		}
	}
}

// TestStreamModeSendfileOnNetsim: a MODE S send over a netsim conn reads the
// file straight into the conn's chunks (sendFrom), and the receive lands them
// straight in the destination (landTo), for a POSIX file and an in-memory one
// alike; the bytes arrive whole, and a file that ends short of the size the
// send was given fails the send, as readAtFull fails the buffered one.
func TestStreamModeSendfileOnNetsim(t *testing.T) {
	posix, err := dsi.NewPosixStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := posix.AddUser("u"); err != nil {
		t.Fatal(err)
	}
	mem := dsi.NewMemStorage()
	mem.AddUser("u")
	stores := []struct {
		name  string
		store dsi.Storage
	}{{"posix", posix}, {"memory", mem}}
	payload := pattern(300 << 10)
	for _, st := range stores {
		f, err := st.store.Create("u", "/src")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(payload, 0); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	for _, tc := range []struct {
		name  string
		size  int64
		whole bool
	}{{"whole", int64(len(payload)), true}, {"shrunk", int64(len(payload)) + 100, false}} {
		t.Run(tc.name, func(t *testing.T) {
			for _, st := range stores {
				t.Run(st.name, func(t *testing.T) {
					send, recv := simPipe(t, netsim.NewNetwork())
					defer recv.Close()
					src, err := st.store.Open("u", "/src")
					if err != nil {
						t.Fatal(err)
					}
					defer src.Close()
					dst, err := st.store.Create("u", "/dst-"+tc.name)
					if err != nil {
						t.Fatal(err)
					}
					defer dst.Close()
					got := make(chan int64, 1)
					go func() {
						n, _ := recvStream(recv, dst, 0, DefaultBlockSize)
						got <- n
					}()
					err = sendStream(send, src, 0, tc.size, DefaultBlockSize)
					send.Close()
					if tc.whole != (err == nil) {
						t.Fatalf("sendStream of %d bytes from a %d-byte file: %v", tc.size, len(payload), err)
					}
					if n := <-got; tc.whole && n != int64(len(payload)) {
						t.Fatalf("received %d bytes, want %d", n, len(payload))
					}
					if tc.whole {
						back := make([]byte, len(payload))
						if _, err := dst.ReadAt(back, 0); err != nil || !bytes.Equal(back, payload) {
							t.Fatalf("the received file differs from the sent one (%v)", err)
						}
					}
				})
			}
		})
	}
}

// TestStreamModeReceiveReportsStorage: a MODE S receive over a netsim conn
// into a file whose storage refuses a write partway fails with the storage's
// refusal, not with what the refusal did to the conn.
func TestStreamModeReceiveReportsStorage(t *testing.T) {
	const size = 300 << 10
	mem := dsi.NewMemStorage()
	mem.AddUser("u")
	store := dsi.NewFaultStorage(mem)
	store.Arm(size / 2)
	dst, err := store.Create("u", "/dst")
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	send, recv := simPipe(t, netsim.NewNetwork())
	defer recv.Close()
	go func() {
		send.Write(pattern(size))
		send.Close()
	}()
	if _, err := recvStream(recv, dst, 0, DefaultBlockSize); !errors.Is(err, dsi.ErrInjectedFault) {
		t.Fatalf("a receive into storage that refuses a write: %v, want %v", err, dsi.ErrInjectedFault)
	}
}
