package gridftp

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/eventlog"
	"gridftp.dev/instant/internal/obs/streamstats"
	"gridftp.dev/instant/internal/usagestats"
	"gridftp.dev/instant/internal/xio"
)

// deflateDriver is the shared MODE E compression driver: one instance,
// because its flate writer/reader pools are what make per-channel
// compression affordable on channel-caching workloads.
var deflateDriver = &xio.DeflateDriver{}

// maybeDeflate layers DEFLATE over a secured channel when the session
// negotiated "OPTS RETR Deflate=1;". Compression sits above the security
// layer (compress-then-encrypt) and below the MODE E framing, so block
// headers and payload travel as one continuous DEFLATE stream that
// survives pooled-channel reuse.
func maybeDeflate(sec net.Conn, on bool) net.Conn {
	if !on {
		return sec
	}
	return deflateDriver.Wrap(sec)
}

func msDuration(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// dataTimeout returns the configured wait bound for data connections.
func (sess *session) dataTimeout() time.Duration {
	if d := sess.srv.cfg.DataTimeout; d > 0 {
		return d
	}
	return 30 * time.Second
}

// dataChannel is one established (and secured) data connection.
type dataChannel struct {
	raw net.Conn
	sec net.Conn
	// acceptor records the TCP role (and hence TLS role) this end played.
	acceptor bool
}

func (d *dataChannel) close() {
	d.raw.Close()
}

// sessionData manages a session's data channel state: passive listeners,
// active targets, and the cross-transfer channel cache. Channel caching
// avoids re-paying connection setup and DCAU handshakes for every file,
// which is what makes lots-of-small-files workloads viable (§II.A [11]).
// Both ends of a session see the same negotiation commands, so their
// pools flush in lockstep and stay consistent.
type sessionData struct {
	listeners []net.Listener
	portAddrs []string

	// acceptCh/acceptErr are fed by one pump goroutine per listener,
	// started when the listeners open. A single owner per listener is
	// essential: per-transfer Accept goroutines would race and strand
	// connections in abandoned channels when a transfer is canceled.
	acceptCh  chan net.Conn
	acceptErr chan error

	// pools of idle channels, by TCP role.
	pooledAccepted []*dataChannel
	pooledDialed   []*dataChannel

	cacheDisabled bool
}

// startPumps launches one accept pump per listener. Pumps exit when their
// listener closes.
func (d *sessionData) startPumps() {
	d.acceptCh = make(chan net.Conn, 64)
	d.acceptErr = make(chan error, len(d.listeners))
	for _, l := range d.listeners {
		go func(l net.Listener, conns chan net.Conn, errs chan error) {
			for {
				c, err := l.Accept()
				if err != nil {
					errs <- err
					return
				}
				select {
				case conns <- c:
				default:
					c.Close() // backlog overflow: refuse
				}
			}
		}(l, d.acceptCh, d.acceptErr)
	}
}

// flush closes every pooled channel; called whenever the data channel
// parameters (mode, parallelism, protection, DCSC) change.
func (d *sessionData) flush() {
	for _, ch := range d.pooledAccepted {
		ch.close()
	}
	for _, ch := range d.pooledDialed {
		ch.close()
	}
	d.pooledAccepted = nil
	d.pooledDialed = nil
}

// closeAll tears down all data state at session end.
func (d *sessionData) closeAll() {
	d.flush()
	for _, l := range d.listeners {
		l.Close()
	}
	d.listeners = nil
}

func (d *sessionData) closeListeners() {
	for _, l := range d.listeners {
		l.Close()
	}
	d.listeners = nil
}

// handlePassive opens listener(s) and reports their addresses. For a
// striped server, SPAS opens one listener per stripe node (§II.B); PASV
// opens a single listener on the PI host.
func (sess *session) handlePassive(striped bool) {
	sess.data.closeListeners()
	sess.data.flush()
	sess.data.portAddrs = nil

	hosts := []interface {
		Listen(port int) (net.Listener, error)
	}{sess.srv.host}
	if striped && len(sess.srv.cfg.StripeNodes) > 0 {
		hosts = hosts[:0]
		for _, n := range sess.srv.cfg.StripeNodes {
			hosts = append(hosts, n.Host)
		}
	}
	var addrs []string
	for _, h := range hosts {
		l, err := h.Listen(0)
		if err != nil {
			sess.data.closeListeners()
			sess.reply(ftp.CodeCantOpenData, errText(err))
			return
		}
		sess.data.listeners = append(sess.data.listeners, l)
		addrs = append(addrs, l.Addr().String())
	}
	sess.data.startPumps()
	if striped {
		lines := append([]string{"Entering Striped Passive Mode"}, addrs...)
		lines = append(lines, "End")
		sess.reply(ftp.CodeEnteringExtPasv, lines...)
		return
	}
	sess.reply(ftp.CodeEnteringPassive, fmt.Sprintf("Entering Passive Mode (%s)", addrs[0]))
}

// handlePort records the remote data address(es) for active transfers.
func (sess *session) handlePort(params string, striped bool) {
	addrs := strings.Fields(params)
	if len(addrs) == 0 {
		sess.reply(ftp.CodeParamSyntaxError, "No data address given")
		return
	}
	if !striped && len(addrs) > 1 {
		sess.reply(ftp.CodeParamSyntaxError, "PORT takes one address (use SPOR)")
		return
	}
	for _, a := range addrs {
		if _, _, err := net.SplitHostPort(a); err != nil {
			sess.reply(ftp.CodeParamSyntaxError, "Bad data address "+a)
			return
		}
	}
	sess.data.closeListeners()
	sess.data.flush()
	sess.data.portAddrs = addrs
	sess.reply(ftp.CodeOK, "Data address(es) accepted")
}

// dialHosts returns the hosts outbound data connections originate from:
// the stripe nodes for a striped server, else the PI host.
func (sess *session) dialHosts() []*dialHost {
	tr := sess.spec.Transport
	if len(sess.srv.cfg.StripeNodes) > 0 {
		out := make([]*dialHost, len(sess.srv.cfg.StripeNodes))
		for i, n := range sess.srv.cfg.StripeNodes {
			out[i] = &dialHost{host: n.Host, tr: tr}
		}
		return out
	}
	return []*dialHost{{host: sess.srv.host, tr: tr}}
}

type dialHost struct {
	host *netsim.Host
	tr   netsim.Transport
}

func (d *dialHost) dial(target string) (net.Conn, error) {
	return d.host.DialTransport(target, d.tr)
}

// establishChannels produces n secured data channels, reusing the pool
// when possible. Dialed channels connect round-robin from the dial hosts
// to the stored port addresses; accepted channels come off the passive
// listeners.
func (sess *session) establishChannels(n int) ([]*dataChannel, error) {
	d := &sess.data
	switch {
	case len(d.portAddrs) > 0:
		if len(d.pooledDialed) == n {
			chans := d.pooledDialed
			d.pooledDialed = nil
			return chans, nil
		}
		for _, ch := range d.pooledDialed {
			ch.close()
		}
		d.pooledDialed = nil
		hosts := sess.dialHosts()
		// Establish all channels concurrently: connection setup and DCAU
		// handshakes would otherwise serialize N round trips.
		chans := make([]*dataChannel, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				addr := d.portAddrs[i%len(d.portAddrs)]
				raw, err := hosts[i%len(hosts)].dial(addr)
				if err != nil {
					errs[i] = fmt.Errorf("dial data %s: %w", addr, err)
					return
				}
				sec, err := secureData(raw, sess.dataContext(), sess.spec.DCAU, sess.spec.Prot, false)
				if err != nil {
					raw.Close()
					errs[i] = err
					return
				}
				chans[i] = &dataChannel{raw: raw, sec: maybeDeflate(sec, sess.spec.Deflate)}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				closeChannels(compactChannels(chans))
				return nil, err
			}
		}
		return chans, nil
	case len(d.listeners) > 0:
		if len(d.pooledAccepted) == n {
			chans := d.pooledAccepted
			d.pooledAccepted = nil
			return chans, nil
		}
		for _, ch := range d.pooledAccepted {
			ch.close()
		}
		d.pooledAccepted = nil
		// Accept serially (one listener feed) but run the DCAU handshakes
		// concurrently so N connections cost one handshake latency.
		accept := sess.multiAccept()
		chans := make([]*dataChannel, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			raw, err := accept(nil)
			if err != nil {
				wg.Wait()
				closeChannels(compactChannels(chans))
				return nil, fmt.Errorf("accept data: %w", err)
			}
			wg.Add(1)
			go func(i int, raw net.Conn) {
				defer wg.Done()
				sec, err := secureData(raw, sess.dataContext(), sess.spec.DCAU, sess.spec.Prot, true)
				if err != nil {
					raw.Close()
					errs[i] = err
					return
				}
				chans[i] = &dataChannel{raw: raw, sec: maybeDeflate(sec, sess.spec.Deflate), acceptor: true}
			}(i, raw)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				closeChannels(compactChannels(chans))
				return nil, err
			}
		}
		return chans, nil
	default:
		return nil, errors.New("no data channel established (use PASV/SPAS or PORT/SPOR)")
	}
}

// multiAccept returns an accept function fed by the session's listener
// pumps. It honors the stop channel so a receive that has already
// concluded does not leave an accept blocked for its full timeout.
func (sess *session) multiAccept() func(stop <-chan struct{}) (net.Conn, error) {
	conns, errs := sess.data.acceptCh, sess.data.acceptErr
	return func(stop <-chan struct{}) (net.Conn, error) {
		if conns == nil {
			return nil, errors.New("no passive listeners")
		}
		if stop == nil {
			stop = make(chan struct{})
		}
		t := time.NewTimer(sess.dataTimeout())
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

func closeChannels(chans []*dataChannel) {
	for _, ch := range chans {
		ch.close()
	}
}

// parallelSecureAccept turns a raw accept source into one that performs
// DCAU handshakes concurrently: a pump goroutine keeps accepting raw
// connections and securing each on its own goroutine, so N inbound
// channels cost one handshake latency instead of N. onNew is invoked
// (serialized) with each secured channel so the caller can track it for
// pooling. The pump stops when stop closes or the raw source fails.
func parallelSecureAccept(rawAccept func(stop <-chan struct{}) (net.Conn, error),
	ctx *SecurityContext, dcau DCAUMode, prot ProtLevel, deflate bool,
	onNew func(*dataChannel)) func(stop <-chan struct{}) (net.Conn, error) {

	secured := make(chan net.Conn, 64)
	errCh := make(chan error, 1)
	var once sync.Once
	var mu sync.Mutex

	start := func(stop <-chan struct{}) {
		go func() {
			for {
				raw, err := rawAccept(stop)
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
				go func(raw net.Conn) {
					sec, err := secureData(raw, ctx, dcau, prot, true)
					if err != nil {
						raw.Close()
						select {
						case errCh <- err:
						default:
						}
						return
					}
					sec = maybeDeflate(sec, deflate)
					mu.Lock()
					onNew(&dataChannel{raw: raw, sec: sec, acceptor: true})
					mu.Unlock()
					select {
					case secured <- sec:
					case <-stop:
						// Transfer concluded before this channel was used.
					}
				}(raw)
			}
		}()
	}

	return func(stop <-chan struct{}) (net.Conn, error) {
		once.Do(func() { start(stop) })
		if stop == nil {
			stop = make(chan struct{})
		}
		select {
		case c := <-secured:
			return c, nil
		case err := <-errCh:
			return nil, err
		case <-stop:
			return nil, errors.New("transfer concluded")
		}
	}
}

// compactChannels drops nil slots (failed concurrent establishment).
func compactChannels(chans []*dataChannel) []*dataChannel {
	out := chans[:0]
	for _, ch := range chans {
		if ch != nil {
			out = append(out, ch)
		}
	}
	return out
}

// retire returns channels to the pool (MODE E with caching) or closes
// them (stream mode, caching disabled, or failed transfer).
func (sess *session) retire(chans []*dataChannel, ok bool) {
	if !ok || sess.spec.Mode != ModeExtended || sess.data.cacheDisabled || sess.srv.cfg.DisableChannelCache {
		closeChannels(chans)
		return
	}
	if len(chans) > 0 && chans[0].acceptor {
		sess.data.pooledAccepted = chans
	} else {
		sess.data.pooledDialed = chans
	}
}

// requireDataAuth checks the DCAU prerequisites before a transfer.
func (sess *session) requireDataAuth() bool {
	if sess.spec.DCAU == DCAUNone {
		return true
	}
	if sess.dataContext() == nil {
		sess.reply(ftp.CodeNotLoggedIn,
			"Data channel authentication requires a delegated credential or DCSC context")
		return false
	}
	return true
}

// refuseTransfer answers a transfer command that failed before it used the
// data path. In a third-party transfer the peer server has been told to
// use that path too, and on a reused channel it would wait out the
// first-block deadline for data that will never come; closing this
// session's pooled channels fails the peer's pending transfer at once
// (426). The client sees the refusal and re-negotiates before its next
// transfer, so nothing stale is left on either side.
func (sess *session) refuseTransfer(code int, err error) {
	sess.data.flush()
	sess.reply(code, errText(err))
}

// handleRetr sends a file. off/length >= 0 restrict to a region (ERET).
func (sess *session) handleRetr(params string, off, length int64) {
	p, err := sess.resolve(params)
	if err != nil {
		sess.refuseTransfer(ftp.CodeBadFileName, err)
		return
	}
	if !sess.requireDataAuth() {
		return
	}
	f, err := sess.srv.cfg.Storage.Open(sess.localUser, p)
	if err != nil {
		sess.refuseTransfer(ftp.CodeFileUnavailable, err)
		return
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		sess.refuseTransfer(ftp.CodeLocalError, err)
		return
	}
	var ranges []Range
	switch {
	case off >= 0:
		end := off + length
		if end > size {
			end = size
		}
		if off > size {
			off = size
		}
		ranges = []Range{{off, end}}
	case len(sess.restart) > 0:
		ranges = FromRanges(sess.restart).Missing(size)
		sess.restart = nil
	default:
		ranges = []Range{{0, size}}
	}

	sess.cmdSpan.SetAttr("path", p)
	sess.cmdSpan.SetAttr("size", size)
	est := sess.cmdSpan.Child("gridftp.data.establish")
	chans, err := sess.establishChannels(sess.spec.Parallelism)
	est.SetError(err)
	est.End()
	if err != nil {
		sess.reply(ftp.CodeCantOpenData, errText(err))
		return
	}
	sess.reply(ftp.CodeFileStatusOK, fmt.Sprintf("Opening data connection for %s (%d bytes)", p, size))
	sess.eventTransfer(eventlog.TransferStart, "RETR", p, size)
	start := time.Now()
	var sendErr error
	if sess.spec.Mode == ModeExtended {
		// Emit in-flight 112 performance markers (per-stripe bytes sent)
		// while the send runs; the final set is flushed before the
		// completion reply so the last marker carries the end totals.
		perf := &perfTracker{}
		perfStop := make(chan struct{})
		perfDone := make(chan struct{})
		go func() {
			defer close(perfDone)
			perfEmitter(perf, sess.markerInterval(), sess.emitPerf, perfStop)
		}()
		conns, tracker := sess.trackChannels("RETR", chans)
		tracker.SetAbort(func() { abortChannels(chans) })
		sendErr = sendModeE(conns, f, ranges, sess.spec.BlockSize, perf.add)
		if tracker.StallAborted() && sendErr != nil {
			sendErr = fmt.Errorf("stalled stream aborted by watchdog: %w", sendErr)
		}
		tracker.Done(sendErr)
		close(perfStop)
		<-perfDone
	} else {
		from := int64(0)
		if len(ranges) > 0 {
			from = ranges[0].Start
		}
		sendErr = sendStream(chans[0].sec, f, from, size, sess.spec.BlockSize)
	}
	if sendErr != nil {
		closeChannels(chans)
		sess.data.flush()
		sess.observeTransfer(time.Since(start), false)
		sess.eventAbort("RETR", p, sendErr)
		sess.reply(ftp.CodeTransferAborted, errText(sendErr))
		return
	}
	sess.retire(chans, true)
	sess.reportUsage("RETR", p, totalLen(ranges), time.Since(start))
	sess.reply(ftp.CodeClosingData, "Transfer complete")
}

// handleStor receives a file, emitting restart markers while it runs.
func (sess *session) handleStor(params string) {
	p, err := sess.resolve(params)
	if err != nil {
		sess.refuseTransfer(ftp.CodeBadFileName, err)
		return
	}
	if !sess.requireDataAuth() {
		return
	}
	restart := sess.restart
	sess.restart = nil
	var f dsi.File
	if len(restart) > 0 {
		// Resuming: keep existing contents.
		f, err = sess.srv.cfg.Storage.Open(sess.localUser, p)
		if err != nil {
			f, err = sess.srv.cfg.Storage.Create(sess.localUser, p)
		}
	} else {
		f, err = sess.srv.cfg.Storage.Create(sess.localUser, p)
	}
	if err != nil {
		sess.refuseTransfer(ftp.CodeFileUnavailable, err)
		return
	}
	defer f.Close()
	if hint := sess.alloHint; hint > 0 {
		sess.alloHint = 0
		preallocate(f, hint)
	}

	sess.cmdSpan.SetAttr("path", p)
	start := time.Now()
	if sess.spec.Mode == ModeStream {
		est := sess.cmdSpan.Child("gridftp.data.establish")
		chans, err := sess.establishChannels(1)
		est.SetError(err)
		est.End()
		if err != nil {
			sess.reply(ftp.CodeCantOpenData, errText(err))
			return
		}
		sess.reply(ftp.CodeFileStatusOK, "Opening data connection")
		sess.eventTransfer(eventlog.TransferStart, "STOR", p, -1)
		offset := int64(0)
		if len(restart) == 1 && restart[0].Start == 0 {
			offset = restart[0].End
		}
		n, recvErr := recvStream(chans[0].sec, f, offset, sess.spec.BlockSize)
		closeChannels(chans)
		if recvErr != nil {
			sess.observeTransfer(time.Since(start), false)
			sess.eventAbort("STOR", p, recvErr)
			sess.reply(ftp.CodeTransferAborted, errText(recvErr))
			return
		}
		sess.reportUsage("STOR", p, n, time.Since(start))
		sess.reply(ftp.CodeClosingData, "Transfer complete")
		return
	}

	// MODE E receive with restart markers. The receiver accepts channels
	// dynamically: pooled channels first, then fresh ones off the
	// listeners.
	received := FromRanges(restart)
	pooled := sess.data.pooledAccepted
	sess.data.pooledAccepted = nil
	var fresh []*dataChannel
	pi := 0
	var acceptRaw func(stop <-chan struct{}) (net.Conn, error)
	if len(sess.data.listeners) > 0 {
		acceptRaw = sess.multiAccept()
	}
	var freshMu sync.Mutex
	sealed := false
	var securedAccept func(stop <-chan struct{}) (net.Conn, error)
	if acceptRaw != nil {
		securedAccept = parallelSecureAccept(acceptRaw, sess.dataContext(),
			sess.spec.DCAU, sess.spec.Prot, sess.spec.Deflate, func(ch *dataChannel) {
				freshMu.Lock()
				if sealed {
					// The transfer already concluded; a late handshake's
					// channel has no owner, so drop it.
					freshMu.Unlock()
					ch.close()
					return
				}
				fresh = append(fresh, ch)
				freshMu.Unlock()
			})
	}
	accept := func(stop <-chan struct{}) (net.Conn, error) {
		if pi < len(pooled) {
			ch := pooled[pi]
			pi++
			return ch.sec, nil
		}
		if securedAccept == nil {
			return nil, errors.New("no data channel source")
		}
		return securedAccept(stop)
	}

	if sess.data.portAddrs != nil && acceptRaw == nil && len(pooled) == 0 {
		// Receiver was put in active mode: dial out instead.
		chans, err := sess.establishChannels(sess.spec.Parallelism)
		if err != nil {
			sess.reply(ftp.CodeCantOpenData, errText(err))
			return
		}
		pooled = chans
		accept = func(stop <-chan struct{}) (net.Conn, error) {
			if pi < len(pooled) {
				ch := pooled[pi]
				pi++
				return ch.sec, nil
			}
			return nil, errors.New("sender wants more channels than parallelism")
		}
	}

	// Stream telemetry: instrument each data connection as it joins the
	// transfer, and give the stall watchdog a cancel path into the receive
	// loop (closing cancelOnStall makes recvModeE close its active conns).
	var tracker *streamstats.Transfer
	var cancelOnStall chan struct{}
	if reg := sess.srv.cfg.Streams; reg != nil {
		tracker = reg.Begin(sess.streamLabel("STOR"), "STOR")
		cancelOnStall = make(chan struct{})
		var cancelOnce sync.Once
		tracker.SetAbort(func() { cancelOnce.Do(func() { close(cancelOnStall) }) })
		base := accept
		idx := 0 // accept runs on recvModeE's single acceptor goroutine
		accept = func(stop <-chan struct{}) (net.Conn, error) {
			c, err := base(stop)
			if err != nil {
				return c, err
			}
			i := idx
			idx++
			return tracker.Wrap(i, c, c), nil
		}
	}

	sess.reply(ftp.CodeFileStatusOK, "Opening data connection")
	sess.eventTransfer(eventlog.TransferStart, "STOR", p, -1)

	stop := make(chan struct{})
	markerDone := make(chan struct{})
	// Capture the command span before launching the marker goroutine: it
	// must not read sess.cmdSpan concurrently with the command loop.
	cmdSpan := sess.cmdSpan
	go func() {
		defer close(markerDone)
		markerEmitter(received, sess.markerInterval(), func(m string) {
			sess.reply(ftp.CodeRestartMarker, "Range Marker "+m)
			// Each restart marker is a durable checkpoint: record it so
			// /debug/events shows how far a later resume could pick up.
			kv := []any{"component", "gridftp-server", "session", sess.id,
				"path", p, "ranges", m}
			sess.srv.cfg.Obs.EventLog().Append(eventlog.Checkpoint, traceFields(kv, cmdSpan)...)
		}, stop)
	}()
	// Performance markers ride alongside restart markers: restart markers
	// carry *which ranges* landed (for checkpointing), perf markers carry
	// *per-stripe throughput counters* (for in-flight monitoring).
	perf := &perfTracker{}
	perfDone := make(chan struct{})
	go func() {
		defer close(perfDone)
		perfEmitter(perf, sess.markerInterval(), sess.emitPerf, stop)
	}()
	res := recvModeE(accept, f, received, sess.spec.BlockSize, perf.add, cancelOnStall)
	if tracker.StallAborted() && res.Err != nil {
		res.Err = fmt.Errorf("stalled stream aborted by watchdog: %w", res.Err)
	}
	tracker.Done(res.Err)
	close(stop)
	<-markerDone
	<-perfDone

	// Any pooled channels the sender declined to reuse are stale: close them.
	for _, ch := range pooled[pi:] {
		ch.close()
	}
	freshMu.Lock()
	sealed = true
	all := append(pooled[:pi:pi], fresh...)
	freshMu.Unlock()
	if res.Err != nil {
		closeChannels(all)
		sess.data.flush()
		sess.observeTransfer(time.Since(start), false)
		sess.eventAbort("STOR", p, res.Err)
		sess.reply(ftp.CodeTransferAborted, errText(res.Err))
		return
	}
	sess.retire(all, true)
	sess.reportUsage("STOR", p, res.Received.Covered(), time.Since(start))
	sess.reply(ftp.CodeClosingData, "Transfer complete")
}

func (sess *session) markerInterval() time.Duration {
	if sess.spec.MarkerInterval > 0 {
		return sess.spec.MarkerInterval
	}
	return sess.srv.cfg.MarkerInterval
}

// handleMlsd streams a machine-readable directory listing over a fresh,
// uncached data connection (stream mode regardless of session mode).
func (sess *session) handleMlsd(params string) {
	p, err := sess.resolve(params)
	if err != nil {
		sess.reply(ftp.CodeBadFileName, errText(err))
		return
	}
	infos, err := sess.srv.cfg.Storage.List(sess.localUser, p)
	if err != nil {
		sess.reply(ftp.CodeFileUnavailable, errText(err))
		return
	}
	if !sess.requireDataAuth() {
		return
	}
	sess.data.flush() // MLSD never reuses transfer channels
	chans, err := sess.establishChannels(1)
	if err != nil {
		sess.reply(ftp.CodeCantOpenData, errText(err))
		return
	}
	sess.reply(ftp.CodeFileStatusOK, "Opening data connection for MLSD")
	var listing strings.Builder
	for _, fi := range infos {
		listing.WriteString(mlstFacts(fi))
		listing.WriteString("\r\n")
	}
	_, werr := chans[0].sec.Write([]byte(listing.String()))
	if hc, ok := chans[0].sec.(interface{ CloseWrite() error }); ok && werr == nil {
		werr = hc.CloseWrite()
	}
	closeChannels(chans)
	if werr != nil {
		sess.reply(ftp.CodeTransferAborted, errText(werr))
		return
	}
	sess.reply(ftp.CodeClosingData, "MLSD complete")
}

// emitPerf writes one 112 performance marker on the control channel
// (serialized with all other replies via replyMu).
func (sess *session) emitPerf(m PerfMarker) {
	sess.reply(CodePerfMarker, perfMarkerLines(m)...)
}

// traceFields appends span's wire ids to an event's key/value list so
// events and spans cross-reference; a nil span appends nothing.
func traceFields(kv []any, span *obs.Span) []any {
	if span != nil {
		kv = append(kv, "trace", span.TraceID.String(), "span", span.SpanID.String())
	}
	return kv
}

// eventTransfer records a transfer lifecycle event (size < 0 = unknown,
// e.g. an inbound STOR whose length only the sender knows).
func (sess *session) eventTransfer(typ, op, path string, size int64) {
	kv := []any{"component", "gridftp-server", "session", sess.id,
		"user", sess.localUser, "op", op, "path", path}
	if size >= 0 {
		kv = append(kv, "size", size)
	}
	sess.srv.cfg.Obs.EventLog().Append(typ, traceFields(kv, sess.cmdSpan)...)
}

func (sess *session) eventAbort(op, path string, err error) {
	kv := []any{"component", "gridftp-server", "session", sess.id,
		"user", sess.localUser, "op", op, "path", path, "err", err.Error()}
	sess.srv.cfg.Obs.EventLog().Append(eventlog.TransferAbort, traceFields(kv, sess.cmdSpan)...)
}

// observeTransfer feeds the transfer latency histograms: the unlabeled
// aggregate plus the ok|err outcome split. The command span's trace id
// rides along as the bucket exemplar so a fleet-level latency alert can
// name a representative transfer trace.
func (sess *session) observeTransfer(dur time.Duration, ok bool) {
	reg := sess.srv.cfg.Obs.Registry()
	var traceID string
	if sess.cmdSpan != nil {
		traceID = sess.cmdSpan.TraceID.String()
	}
	reg.Histogram("gridftp.server.transfer_seconds", obs.DefaultDurationBuckets).
		ObserveExemplar(dur.Seconds(), traceID)
	outcome := "outcome=ok"
	if !ok {
		outcome = "outcome=err"
	}
	reg.Histogram(obs.Name("gridftp.server.transfer_seconds", outcome), obs.DefaultDurationBuckets).
		ObserveExemplar(dur.Seconds(), traceID)
}

func (sess *session) reportUsage(op, path string, bytes int64, dur time.Duration) {
	reg := sess.srv.cfg.Obs.Registry()
	reg.Counter("gridftp.server.transfers_total").Inc()
	reg.Counter(obs.Name("gridftp.server.bytes", op)).Add(bytes)
	if sess.identity != nil {
		sess.srv.cfg.Tenants.BytesMoved(string(sess.identity.Identity), bytes)
	}
	sess.observeTransfer(dur, true)
	sess.cmdSpan.SetAttr("bytes", bytes)
	sess.log.Info("transfer complete",
		"op", op, "path", path, "bytes", bytes, "dur", dur.Round(time.Microsecond))
	kv := []any{"component", "gridftp-server", "session", sess.id,
		"user", sess.localUser, "op", op, "path", path,
		"bytes", bytes, "dur", dur.Round(time.Microsecond).String()}
	sess.srv.cfg.Obs.EventLog().Append(eventlog.TransferComplete, traceFields(kv, sess.cmdSpan)...)
	if sess.srv.cfg.Usage == nil {
		return
	}
	sess.srv.cfg.Usage.Report(usagestats.TransferRecord{
		Endpoint: sess.srv.cfg.EndpointName,
		User:     sess.localUser,
		Op:       op,
		Path:     path,
		Bytes:    bytes,
		Duration: dur,
		When:     time.Now(),
	})
}

// streamLabel names this session's current transfer in the stream-health
// plane: the SITE TASK label when one is installed — with a "-src" suffix
// on RETR, so the sending leg of a third-party transfer stays
// distinguishable from the receiving leg under one task prefix — or empty,
// which makes the registry generate a per-transfer label.
func (sess *session) streamLabel(verb string) string {
	if sess.task == "" {
		return ""
	}
	if verb == "RETR" {
		return sess.task + "-src"
	}
	return sess.task
}

// trackChannels registers a MODE E transfer's data channels with the
// server's stream-telemetry registry and returns the instrumented conns
// (or the plain secured conns when no registry is configured). The raw
// conn rides along as the wire-counter source — TCP_INFO or netsim
// WireStatus — which a TLS payload wrapper cannot provide.
func (sess *session) trackChannels(verb string, chans []*dataChannel) ([]net.Conn, *streamstats.Transfer) {
	conns := secConns(chans)
	reg := sess.srv.cfg.Streams
	if reg == nil {
		return conns, nil
	}
	t := reg.Begin(sess.streamLabel(verb), verb)
	for i, ch := range chans {
		conns[i] = t.Wrap(i, ch.sec, ch.raw)
	}
	return conns, t
}

// abortChannels force-closes data connections, preferring a hard abort
// (netsim's TCP RST analogue) so even writers paced out by a rate limiter
// release immediately. The stall watchdog uses this to fail a stalled
// transfer fast enough for the retry to matter.
func abortChannels(chans []*dataChannel) {
	for _, ch := range chans {
		if ab, ok := ch.raw.(interface{ Abort() }); ok {
			ab.Abort()
		} else {
			ch.raw.Close()
		}
	}
}

func secConns(chans []*dataChannel) []net.Conn {
	out := make([]net.Conn, len(chans))
	for i, ch := range chans {
		out[i] = ch.sec
	}
	return out
}

func totalLen(rs []Range) int64 {
	var n int64
	for _, r := range rs {
		n += r.Len()
	}
	return n
}
