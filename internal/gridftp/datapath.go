package gridftp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs/streamstats"
)

// The data-channel path. A server session and a Client are the two ends of
// one protocol, and both build, pool and tear down their data channels
// here, so every rule that keeps the ends consistent exists once. A channel
// is layered bottom-up:
//
//	raw conn          netsim or TCP, per ChannelSpec.Transport
//	→ secureData      DCAU handshake; PROT P keeps the TLS conn, PROT S
//	                  steps down to HMAC frames, PROT C to the raw conn
//	→ MODE E framing  blockWriter / ReadBlock (or the MODE S byte stream)
//
// The framing sees the conn secureData returned, and asks direct (mode.go)
// whether it has a direct path. TLS and the integrity frames transform the
// byte stream, so they have none: a forwarded call would bypass the
// transform. A raw netsim conn has one (directConn) and moves a MODE E block
// or a MODE S file with one copy per end, storage to the wire and the wire
// to storage; a TCP socket has none yet. Stream telemetry is no layer: the
// block loops tell a transfer's streamstats record what each block moved
// (blockHook), and the record polls the raw conn for wire counters. secure
// is the one place a raw conn becomes a channel — a new transport or
// endpoint type plugs in there.

// errNoDataPath answers a transfer command on a session that has negotiated
// no data path, or lost it to a failed transfer.
var errNoDataPath = errors.New("no data channel established (use PASV/SPAS or PORT/SPOR)")

// defaultDataWait bounds the wait for one inbound data connection unless
// the server is configured otherwise (ServerConfig.DataTimeout).
const defaultDataWait = 30 * time.Second

// channelParams is what a session has negotiated for its next channels.
// Both ends of a session see the same negotiation commands, so they derive
// the same values and wrap every channel symmetrically.
type channelParams struct {
	sec  *SecurityContext // nil without a credential (DCAU N only)
	spec ChannelSpec
}

// dataChannel is one established (and secured) data connection.
type dataChannel struct {
	// raw is the transport conn. Close and abort act on it, and it rides
	// along as the wire-counter source for stream telemetry — TCP_INFO or
	// netsim WireStatus — which a TLS payload wrapper cannot provide.
	raw net.Conn
	// sec is what the transfer reads and writes.
	sec net.Conn
	// acceptor records the TCP role (and hence TLS role) this end played.
	acceptor bool
}

// secure authenticates and protects raw per the negotiated DCAU/PROT. raw is
// closed on failure.
func secure(raw net.Conn, p channelParams, acceptor bool) (*dataChannel, error) {
	sec, err := secureData(raw, p.sec, p.spec.DCAU, p.spec.Prot, acceptor)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return &dataChannel{raw: raw, sec: sec, acceptor: acceptor}, nil
}

// close is the one way a channel ends: by a hard abort (netsim's TCP RST
// analogue) when asked and available, so even a writer paced out by a rate
// limiter releases at once, else by closing the transport.
func (ch *dataChannel) close(abort bool) {
	if ab, ok := ch.raw.(interface{ Abort() }); abort && ok {
		ab.Abort()
	} else {
		ch.raw.Close()
	}
}

// closeChannels closes every channel in chans; nil slots (channels that
// failed to establish) are skipped.
func closeChannels(chans []*dataChannel) {
	for _, ch := range chans {
		if ch != nil {
			ch.close(false)
		}
	}
}

// abortChannels force-closes data connections. The stall watchdog uses this
// to fail a stalled transfer fast enough for the retry to matter.
func abortChannels(chans []*dataChannel) {
	for _, ch := range chans {
		ch.close(true)
	}
}

// establish opens n channels concurrently, so n connection set-ups and
// DCAU handshakes cost one round-trip sequence instead of n. If any fails,
// the ones that succeeded are closed.
func establish(n int, open func(i int) (*dataChannel, error)) ([]*dataChannel, error) {
	chans := make([]*dataChannel, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range chans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			chans[i], errs[i] = open(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeChannels(chans)
			return nil, err
		}
	}
	return chans, nil
}

// dataPath is one end's data-channel state: the listeners it accepts on,
// the addresses it connects to, and the cross-transfer channel cache.
// Channel caching avoids re-paying connection set-up and DCAU handshakes
// for every file, which is what makes lots-of-small-files workloads viable
// (§II.A [11]). It is safe because the pools of the two ends flush in
// lockstep: every command that changes what a channel must look like, or
// where it goes, flushes on both sides, and so does every failed transfer.
//
// What differs between a server session and a Client is handed in: the
// four fields below at construction, the channelParams and stream label
// per call. A dataPath is used from its owner's goroutine only.
type dataPath struct {
	// dialFrom are the hosts outbound connections originate from, taken
	// round-robin: the stripe nodes of a striped server, else the one host.
	dialFrom []*netsim.Host
	// wait bounds how long this end waits for one inbound connection.
	wait time.Duration
	// cache enables pooling of MODE E channels across transfers.
	cache bool
	// streams, if non-nil, receives per-stream telemetry for every MODE E
	// transfer and supervises it with the stall watchdog.
	streams *streamstats.Registry

	// listeners each feed inbound/inboundErr through one accept pump; pumps
	// waits for those goroutines.
	listeners  []net.Listener
	pumps      *sync.WaitGroup
	inbound    chan net.Conn
	inboundErr chan error
	// targets are the addresses this end connects to, round-robin.
	targets []string

	// pools of idle channels, by TCP role.
	pooledAccepted []*dataChannel
	pooledDialed   []*dataChannel
}

// flush closes every pooled channel.
func (d *dataPath) flush() {
	closeChannels(d.pooledAccepted)
	closeChannels(d.pooledDialed)
	d.pooledAccepted, d.pooledDialed = nil, nil
}

// closeListeners stops accepting; each listener's pump ends with it. A
// connection the pumps queued that no transfer has claimed is closed: its
// dialler sits in the DCAU handshake for a transfer that will not run here,
// and has to learn that now rather than at the handshake deadline.
func (d *dataPath) closeListeners() {
	if d.pumps == nil {
		return
	}
	for _, l := range d.listeners {
		l.Close()
	}
	d.pumps.Wait()
	for queued := true; queued; {
		select {
		case c := <-d.inbound:
			c.Close()
		default:
			queued = false
		}
	}
	d.listeners, d.pumps, d.inbound, d.inboundErr = nil, nil, nil, nil
}

// reset drops everything negotiated so far — listeners, connect addresses
// and pooled channels — as PASV, PORT and the end of the session do.
func (d *dataPath) reset() {
	d.closeListeners()
	d.flush()
	d.targets = nil
}

// listen resets the data state to "this end accepts": one listener opens
// on each host, and their addresses are returned. Every listener gets
// exactly one accept pump, which ends when the listener closes. A single
// owner per listener is essential: per-transfer Accept goroutines would
// race and strand connections in abandoned channels when a transfer is
// canceled.
func (d *dataPath) listen(hosts []*netsim.Host) ([]string, error) {
	d.reset()
	// 64 is the accept backlog: a connection arriving while that many wait
	// for a transfer to claim them is refused, as a full listen queue would.
	conns := make(chan net.Conn, 64)
	errs := make(chan error, len(hosts))
	addrs := make([]string, 0, len(hosts))
	pumps := new(sync.WaitGroup)
	d.pumps, d.inbound, d.inboundErr = pumps, conns, errs
	for _, h := range hosts {
		l, err := h.Listen(0)
		if err != nil {
			d.closeListeners()
			return nil, err
		}
		d.listeners = append(d.listeners, l)
		addrs = append(addrs, l.Addr().String())
		pumps.Add(1)
		go func() {
			defer pumps.Done()
			for {
				c, err := l.Accept()
				if err != nil {
					errs <- err
					return
				}
				select {
				case conns <- c:
				default:
					c.Close()
				}
			}
		}()
	}
	return addrs, nil
}

// connectTo resets the data state to "this end connects to addrs".
func (d *dataPath) connectTo(addrs []string) {
	d.reset()
	d.targets = addrs
}

// acceptRaw returns the function that waits for one inbound connection,
// for at most d.wait and only until stop closes, so a receive that has
// already concluded does not leave an accept blocked for the full wait.
// The pump channels are captured here, on the owner's goroutine: the
// returned function also runs on handshake goroutines, which may outlive
// the listeners they were started for.
func (d *dataPath) acceptRaw() func(stop <-chan struct{}) (net.Conn, error) {
	conns, errs, wait := d.inbound, d.inboundErr, d.wait
	return func(stop <-chan struct{}) (net.Conn, error) {
		if conns == nil {
			return nil, errors.New("no data listener")
		}
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case c := <-conns:
			return c, nil
		case err := <-errs:
			return nil, err
		case <-stop:
			return nil, errors.New("transfer concluded")
		case <-t.C:
			return nil, errors.New("timed out waiting for data connection")
		}
	}
}

// takePool empties *pool. A pool of exactly n channels is returned for
// reuse; one of any other size cannot serve the transfer and is closed.
func takePool(pool *[]*dataChannel, n int) []*dataChannel {
	chans := *pool
	*pool = nil
	if len(chans) == n {
		return chans
	}
	closeChannels(chans)
	return nil
}

// dial produces n channels this end connects, reusing the pool when it
// holds exactly n.
func (d *dataPath) dial(n int, p channelParams) ([]*dataChannel, error) {
	if chans := takePool(&d.pooledDialed, n); chans != nil {
		return chans, nil
	}
	if len(d.targets) == 0 {
		return nil, errors.New("no data address to connect to")
	}
	return establish(n, func(i int) (*dataChannel, error) {
		addr := d.targets[i%len(d.targets)]
		raw, err := d.dialFrom[i%len(d.dialFrom)].DialTransport(addr, p.spec.Transport)
		if err != nil {
			return nil, fmt.Errorf("dial data %s: %w", addr, err)
		}
		return secure(raw, p, false)
	})
}

// accept produces n channels the peer connects, reusing the pool when it
// holds exactly n.
func (d *dataPath) accept(n int, p channelParams) ([]*dataChannel, error) {
	if chans := takePool(&d.pooledAccepted, n); chans != nil {
		return chans, nil
	}
	acceptRaw := d.acceptRaw()
	return establish(n, func(int) (*dataChannel, error) {
		raw, err := acceptRaw(nil)
		if err != nil {
			return nil, fmt.Errorf("accept data: %w", err)
		}
		return secure(raw, p, true)
	})
}

// retire takes back the channels of a finished transfer. After a clean
// MODE E transfer with caching on they are pooled for the next one.
// Stream-mode channels are spent (EOF is the close). After a failure
// nothing is known about what the peer still holds, so everything this end
// has negotiated goes — channels, listeners and connect addresses; the
// peer's failure path does the same. That leaves nothing for a transfer
// command queued behind the failed one to run on: it is refused at once,
// and no connection is opened, until the client negotiates again.
func (d *dataPath) retire(chans []*dataChannel, mode TransferMode, ok bool) {
	switch {
	case !ok:
		closeChannels(chans)
		d.reset()
	case mode != ModeExtended || !d.cache:
		closeChannels(chans)
	case len(chans) > 0 && chans[0].acceptor:
		d.pooledAccepted = chans
	default:
		d.pooledDialed = chans
	}
}

// trackChannels registers a MODE E send's channels with stream telemetry,
// each polled for wire counters on its raw conn, and returns the secured
// conns the block loop writes to and the record its blocks are told to (a
// nil registry yields a nil Transfer, whose methods are no-ops). The stall
// watchdog aborts the transfer by resetting its channels.
func (d *dataPath) trackChannels(label, verb string, chans []*dataChannel) ([]net.Conn, *streamstats.Transfer) {
	t := d.streams.Begin(label, verb)
	conns := make([]net.Conn, len(chans))
	for i, ch := range chans {
		conns[i] = ch.sec
		t.Stream(i, ch.raw)
	}
	t.SetAbort(func() { abortChannels(chans) })
	return conns, t
}

// receive is one MODE E receive. The receiver does not know how many
// channels the sender will use until the EOF block says so, so it offers
// channels one at a time through accept: the pooled ones first, then fresh
// ones off the listeners. finish settles what becomes of them.
type receive struct {
	d    *dataPath
	mode TransferMode
	// fresh yields newly accepted and secured channels; nil without listeners.
	fresh func(stop <-chan struct{}) (*dataChannel, error)
	// tracker is the transfer's stream-telemetry record (nil without a
	// registry); accept registers each stream as it joins. streams is the
	// next stream index and belongs to recvModeE's single acceptor goroutine.
	tracker *streamstats.Transfer
	streams int
	// canceled is recvModeE's cancel channel; cancel closes it.
	canceled   chan struct{}
	cancelOnce sync.Once

	mu     sync.Mutex
	pooled []*dataChannel // offered first; pooled[:used] joined the transfer
	used   int
	joined []*dataChannel // fresh channels whose handshake completed
	sealed bool           // finish ran; a handshake completing now has no owner
}

// beginReceive sets up a MODE E receive over the channels this end is
// wired for. An end told to connect (a server receiving in active mode)
// has no listener to offer fresh channels from: it dials the negotiated
// parallelism up front and the sender has to make do with those. An end
// that has negotiated nothing has nothing to receive on.
//
// A listening end accepts at most the negotiated parallelism in fresh
// connections — what a sender opens for one transfer, spread over however
// many listeners there are. With commands pipelined and the channel cache
// off at the sender, the connections of the next transfer arrive while
// this receive still runs; they stay queued for the receive they belong to
// instead of joining this one and landing their blocks in its file.
func (d *dataPath) beginReceive(p channelParams, label, verb string) (*receive, error) {
	r := &receive{d: d, mode: p.spec.Mode, canceled: make(chan struct{}), pooled: d.pooledAccepted}
	d.pooledAccepted = nil
	switch {
	case len(d.listeners) > 0:
		r.fresh = parallelSecureAccept(d.acceptRaw(), p.spec.Parallelism, p, r.join)
	case len(r.pooled) > 0:
	case len(d.targets) > 0:
		chans, err := d.dial(p.spec.Parallelism, p)
		if err != nil {
			return nil, err
		}
		r.pooled = chans
	default:
		return nil, errNoDataPath
	}
	r.tracker = d.streams.Begin(label, verb)
	r.tracker.SetAbort(r.cancel)
	return r, nil
}

// cancel aborts the receive: recvModeE closes its active connections and
// returns. The stall watchdog and a failed control channel both end up here.
func (r *receive) cancel() { r.cancelOnce.Do(func() { close(r.canceled) }) }

// join records a freshly secured channel as part of the transfer. After
// finish the channel has no owner and is closed instead.
func (r *receive) join(ch *dataChannel) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sealed {
		ch.close(false)
		return false
	}
	r.joined = append(r.joined, ch)
	return true
}

// accept is the connection source handed to recvModeE. Telemetry reads the
// wire counters off the raw conn, as the sending side does: the secured conn
// of a PROT P or S channel has none.
func (r *receive) accept(stop <-chan struct{}) (net.Conn, error) {
	var ch *dataChannel
	r.mu.Lock()
	if !r.sealed && r.used < len(r.pooled) {
		ch = r.pooled[r.used]
		r.used++
	}
	r.mu.Unlock()
	if ch == nil {
		if r.fresh == nil {
			return nil, errors.New("no further data channel to offer the sender")
		}
		var err error
		if ch, err = r.fresh(stop); err != nil {
			return nil, err
		}
	}
	r.tracker.Stream(r.streams, ch.raw)
	r.streams++
	return ch.sec, nil
}

// finish concludes the receive with the transfer's outcome. Pooled
// channels the sender declined to reuse are stale and are closed; the ones
// that carried the transfer are retired. A handshake still in flight finds
// the receive sealed and closes its channel.
func (r *receive) finish(err error) {
	r.tracker.Done(err)
	r.mu.Lock()
	r.sealed = true
	stale := r.pooled[r.used:]
	all := append(r.pooled[:r.used:r.used], r.joined...)
	r.mu.Unlock()
	closeChannels(stale)
	r.d.retire(all, r.mode, err == nil)
}

// parallelSecureAccept turns a raw accept source into one that performs
// DCAU handshakes concurrently: a pump goroutine keeps accepting raw
// connections and securing each on its own goroutine, so n inbound
// channels cost one handshake latency instead of n. join is offered each
// secured channel so the caller can track it for pooling, and refuses it
// once the transfer is over. The pump starts on the first call and stops
// after limit connections, when that call's stop channel closes, or when
// the raw source fails; a caller asking for more than limit waits for stop.
func parallelSecureAccept(acceptRaw func(stop <-chan struct{}) (net.Conn, error), limit int, p channelParams,
	join func(*dataChannel) bool) func(stop <-chan struct{}) (*dataChannel, error) {

	secured := make(chan *dataChannel)
	firstErr := make(chan error, 1)
	fail := func(err error) {
		select {
		case firstErr <- err:
		default:
		}
	}
	var once sync.Once
	pump := func(stop <-chan struct{}) {
		for i := 0; i < limit; i++ {
			raw, err := acceptRaw(stop)
			if err != nil {
				fail(err)
				return
			}
			go func() {
				ch, err := secure(raw, p, true)
				if err != nil {
					fail(err)
					return
				}
				if !join(ch) {
					return
				}
				select {
				case secured <- ch:
				case <-stop:
					// Transfer concluded before this channel was used.
				}
			}()
		}
	}
	return func(stop <-chan struct{}) (*dataChannel, error) {
		once.Do(func() { go pump(stop) })
		select {
		case ch := <-secured:
			return ch, nil
		case err := <-firstErr:
			return nil, err
		case <-stop:
			return nil, errors.New("transfer concluded")
		}
	}
}
