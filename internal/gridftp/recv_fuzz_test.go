package gridftp

import (
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/netsim"
)

// FuzzReceiveModeE writes arbitrary bytes on one to four data connections
// into recvModeE over a MemStorage file, as a hostile sender could. The first
// byte picks the number of connections and the rest is dealt among them.
// Each input runs twice: over net.Pipe, where payloads pass through a
// buffer, and over netsim conns, where they move from the conn's queue
// straight into the file (WriteTo).
// Whatever the bytes, the receive does not panic, returns within its
// deadline, and grows the heap by no more than the bytes sent plus a
// constant. The constant is the file's own bytes — at most twice its size,
// which is held to dsi's 1 GiB bound for in-memory files — and a megabyte.
func FuzzReceiveModeE(f *testing.F) {
	frame := func(desc byte, count, offset uint64, payload []byte) []byte {
		b := make([]byte, blockHeaderLen+len(payload))
		putBlockHeader(b, desc, count, offset)
		copy(b[blockHeaderLen:], payload)
		return b
	}
	join := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	f.Add(join([]byte{0}, frame(DescEOF, 0, 1, nil), frame(DescRestartable|DescEOD, 5, 0, []byte("hello"))))
	f.Add(join([]byte{1}, frame(DescEOF, 0, 2, nil), frame(DescRestartable|DescEOD, 4, 0, []byte("head")),
		frame(DescRestartable|DescEOD, 4, 4, []byte("tail"))))
	f.Add(join([]byte{0}, frame(DescRestartable, 2, 1<<63, []byte("xx"))))
	f.Add(join([]byte{0}, frame(DescEOF, 0, 3, nil), frame(DescEOD, 0, 0, nil)))
	f.Add(join([]byte{3}, frame(DescEOF|DescEOD, 0, 0, nil)))
	f.Add(join([]byte{2}, frame(DescRestartable, 3, 1<<20, []byte("far")), frame(DescEOD, 0, 0, nil)))
	f.Fuzz(func(t *testing.T, wire []byte) {
		if len(wire) == 0 {
			return
		}
		const streams = 4 // the parallelism the receive negotiated
		n := 1 + int(wire[0])%streams
		wire = wire[1:]
		nw := netsim.NewNetwork()
		for _, pipe := range []func() (net.Conn, net.Conn){
			net.Pipe,
			func() (net.Conn, net.Conn) { return simPipe(t, nw) },
		} {
			receiveHostile(t, wire, n, streams, pipe)
		}
	})
}

// receiveHostile deals wire over n conns made by pipe and receives it.
func receiveHostile(t *testing.T, wire []byte, n, streams int, pipe func() (net.Conn, net.Conn)) {
	mem := dsi.NewMemStorage()
	mem.AddUser("u")
	file, err := mem.Create("u", "/f")
	if err != nil {
		t.Fatal(err)
	}

	var writers sync.WaitGroup
	conns := make([]net.Conn, n)
	for i := range conns {
		var peer net.Conn
		peer, conns[i] = pipe()
		part := wire[i*len(wire)/n : (i+1)*len(wire)/n]
		writers.Add(1)
		go func() {
			defer writers.Done()
			peer.Write(part)
			peer.Close()
		}()
	}
	next := 0
	accept := func(stop <-chan struct{}) (net.Conn, error) {
		if next < len(conns) {
			next++
			return conns[next-1], nil
		}
		// No sender connects again: the data wait ends.
		select {
		case <-stop:
		case <-time.After(10 * time.Millisecond):
		}
		return nil, errors.New("no further data connection")
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	recvModeE(accept, file, nil, minBlockSize, streams, nil, nil)
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("the receive took %v", took)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	size, _ := file.Size()
	if size > 1<<30 {
		t.Fatalf("the file grew to %d bytes, past the 1 GiB bound", size)
	}
	if growth, limit := int64(after.HeapAlloc)-int64(before.HeapAlloc), int64(len(wire))+2*size+1<<20; growth > limit {
		t.Fatalf("the heap grew %d bytes for %d sent into a %d-byte file, past %d", growth, len(wire), size, limit)
	}
	for _, c := range conns {
		c.Close()
	}
	writers.Wait()
}
