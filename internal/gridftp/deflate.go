package gridftp

// DEFLATE compression for data channels ("OPTS RETR Deflate=1;"). Both
// ends wrap the channel, and the wire carries one continuous DEFLATE
// stream per direction, spanning pooled-channel reuse across transfers.
// A flate.Writer carries ~1.2 MB of window and hash-chain state, so minting
// one per data connection would dominate the allocation profile of
// lots-of-small-files workloads where channel caching already amortizes
// connection set-up; writers and readers are therefore drawn from
// sync.Pools and returned when the connection closes — by dataChannel.close
// on the MODE E path, where channels are closed through their transport.

import (
	"compress/flate"
	"io"
	"net"
	"sync"
	"sync/atomic"
)

var (
	flateWriters = sync.Pool{New: func() any {
		w, err := flate.NewWriter(nil, flate.DefaultCompression)
		if err != nil {
			panic(err) // only an invalid level fails, and this one is a constant
		}
		return w
	}}
	flateReaders = sync.Pool{New: func() any { return flate.NewReader(nil) }}
)

// deflateConn embeds the net.Conn interface, not the conn's concrete type,
// so io.ReaderFrom and WriteBuffers of the conn below stay hidden: a
// forwarded call would put uncompressed bytes on the wire.
type deflateConn struct {
	net.Conn

	wmu sync.Mutex
	fw  *flate.Writer

	rmu sync.Mutex
	fr  io.ReadCloser

	// released is set once the compressor state has gone back to the pools;
	// a Write or Read arriving later must not draw a fresh one.
	released atomic.Bool
}

// newDeflateConn layers DEFLATE over conn. The compressor and decompressor
// are acquired lazily on first Write/Read, so a pooled-but-unused channel
// costs nothing.
func newDeflateConn(conn net.Conn) net.Conn {
	return &deflateConn{Conn: conn}
}

func (c *deflateConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.released.Load() {
		return 0, net.ErrClosed
	}
	if c.fw == nil {
		c.fw = flateWriters.Get().(*flate.Writer)
		c.fw.Reset(c.Conn)
	}
	if _, err := c.fw.Write(p); err != nil {
		return 0, err
	}
	// Flush per Write: the peer's decompressor must be able to yield these
	// bytes now — a MODE E block header held back in the compressor would
	// deadlock the receiver.
	if err := c.fw.Flush(); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (c *deflateConn) Read(p []byte) (int, error) {
	c.rmu.Lock()
	defer c.rmu.Unlock()
	if c.released.Load() {
		return 0, net.ErrClosed
	}
	if c.fr == nil {
		c.fr = flateReaders.Get().(io.ReadCloser)
		c.fr.(flate.Resetter).Reset(c.Conn, nil)
	}
	return c.fr.Read(p)
}

// CloseWrite terminates this direction's DEFLATE stream and forwards the
// half-close when the transport supports it (stream-mode EOF).
func (c *deflateConn) CloseWrite() error {
	c.wmu.Lock()
	if c.fw != nil {
		c.fw.Close()
		flateWriters.Put(c.fw)
		c.fw = nil
	}
	c.wmu.Unlock()
	return closeWrite(c.Conn)
}

// Close closes the conn below, then releases the compressor state.
func (c *deflateConn) Close() error {
	err := c.Conn.Close()
	c.release()
	return err
}

// release returns the compressor and decompressor to their pools. The conn
// below must already be closed: that is what makes a Write or Read still
// running on another goroutine return and give up its lock. Nothing is
// written here: every Write flushed itself.
func (c *deflateConn) release() {
	c.released.Store(true)
	c.wmu.Lock()
	if c.fw != nil {
		flateWriters.Put(c.fw)
		c.fw = nil
	}
	c.wmu.Unlock()
	c.rmu.Lock()
	if c.fr != nil {
		flateReaders.Put(c.fr)
		c.fr = nil
	}
	c.rmu.Unlock()
}
