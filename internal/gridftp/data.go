package gridftp

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/usagestats"
)

func msDuration(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// newDataPath is a session's end of the data-channel path: outbound
// connections originate from the data hosts, inbound ones are awaited for
// DataTimeout.
func (s *Server) newDataPath() dataPath {
	d := dataPath{
		dialFrom: s.dataHosts(),
		wait:     s.cfg.DataTimeout,
		cache:    !s.cfg.DisableChannelCache,
		streams:  s.cfg.Streams,
	}
	if d.wait <= 0 {
		d.wait = defaultDataWait
	}
	return d
}

// dataHosts returns the hosts that move this server's data: the stripe
// nodes of a striped server, else the PI host.
func (s *Server) dataHosts() []*netsim.Host {
	if len(s.cfg.StripeNodes) == 0 {
		return []*netsim.Host{s.host}
	}
	hosts := make([]*netsim.Host, len(s.cfg.StripeNodes))
	for i, n := range s.cfg.StripeNodes {
		hosts[i] = n.Host
	}
	return hosts
}

// channelParams is what the session has negotiated for its data channels.
func (sess *session) channelParams() channelParams {
	return channelParams{sec: sess.dataContext(), spec: sess.spec}
}

// handlePassive opens listener(s) and reports their addresses. For a
// striped server, SPAS opens one listener per stripe node (§II.B); PASV
// opens a single listener on the PI host.
func (sess *session) handlePassive(striped bool) {
	hosts := []*netsim.Host{sess.srv.host}
	if striped {
		hosts = sess.srv.dataHosts()
	}
	addrs, err := sess.data.listen(hosts)
	if err != nil {
		sess.reply(ftp.CodeCantOpenData, errText(err))
		return
	}
	if striped {
		lines := append([]string{"Entering Striped Passive Mode"}, addrs...)
		lines = append(lines, "End")
		sess.reply(ftp.CodeEnteringExtPasv, lines...)
		return
	}
	sess.reply(ftp.CodeEnteringPassive, fmt.Sprintf("Entering Passive Mode (%s)", addrs[0]))
}

// handlePort records the remote data address(es) for active transfers. It
// resets the data state first, refused or not: a transfer written behind a
// refused PORT finds no data path (425), rather than the one before it.
func (sess *session) handlePort(params string, striped bool) {
	sess.data.reset()
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
	sess.data.connectTo(addrs)
	sess.reply(ftp.CodeOK, "Data address(es) accepted")
}

// establishChannels produces n secured data channels in the role the
// client last negotiated: PORT/SPOR makes this end connect, PASV/SPAS
// makes it accept.
func (sess *session) establishChannels(n int) ([]*dataChannel, error) {
	switch {
	case len(sess.data.targets) > 0:
		return sess.data.dial(n, sess.channelParams())
	case len(sess.data.listeners) > 0:
		return sess.data.accept(n, sess.channelParams())
	}
	return nil, errNoDataPath
}

// requireDataAuth checks the DCAU prerequisites before a transfer; a
// session that fails them has been refused (refuseTransfer).
func (sess *session) requireDataAuth() bool {
	if sess.spec.DCAU == DCAUNone || sess.dataContext() != nil {
		return true
	}
	sess.refuseTransfer(ftp.CodeNotLoggedIn,
		errors.New("Data channel authentication requires a delegated credential or DCSC context"))
	return false
}

// refuseTransfer answers a transfer command that cannot run — a bad path,
// a file that will not open, no data channel — and drops everything the
// session has negotiated for its data path, as a transfer that fails midway
// does (dataPath.retire). Two things depend on that. In a third-party
// transfer the peer server has been told to use the path too, and on a
// reused channel it would wait out the first-block deadline for data that
// will never come: closing the pooled channels fails its pending transfer
// at once (426). And with commands pipelined, the transfer commands queued
// behind this one find no data path and are refused at once (425) instead
// of dialling, or waiting for, a peer whose own queue has moved on. The
// client sees the refusal and re-negotiates before its next transfer, so
// nothing stale is left on either side — including a REST armed for the
// refused command, which must not apply to the next one.
func (sess *session) refuseTransfer(code int, err error) {
	sess.data.reset()
	sess.restart = nil
	sess.reply(code, errText(err))
}

// handleRetr sends a file, or the ranges a REST left missing.
func (sess *session) handleRetr(params string) {
	p := sess.resolve(params)
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
	ranges := []Range{{0, size}}
	if len(sess.restart) > 0 {
		ranges = FromRanges(sess.restart).Missing(size)
		sess.restart = nil
	}

	sess.cmdSpan.SetAttr("path", p)
	sess.cmdSpan.SetAttr("size", size)
	est := sess.cmdSpan.Child("gridftp.data.establish")
	streams := sess.spec.Parallelism
	if sess.spec.Mode == ModeStream {
		streams = 1 // MODE S is one byte stream, as handleStor and the client have it
	}
	chans, err := sess.establishChannels(streams)
	est.SetError(err)
	est.End()
	if err != nil {
		sess.refuseTransfer(ftp.CodeCantOpenData, err)
		return
	}
	sess.reply(ftp.CodeFileStatusOK, fmt.Sprintf("Opening data connection for %s (%d bytes)", p, size))
	sess.log.Info("transfer.start", traceFields([]any{"op", "RETR", "path", p, "size", size}, sess.cmdSpan)...)
	start := time.Now()
	var sendErr error
	// closing is the transfer's last markers, framed and not yet written: they
	// leave with the completion reply, as one write (complete).
	var closing []ftp.Reply
	if sess.spec.Mode == ModeExtended {
		// In-flight 112 performance markers (per-stripe bytes sent) while the
		// send runs.
		perf := &perfTracker{}
		finish := sess.startMarkers(perf.frame)
		conns, tracker := sess.data.trackChannels(sess.streamLabel("RETR"), "RETR", chans)
		sendErr = sendModeE(conns, f, ranges, sess.spec.BlockSize, func(i int, n int64, took time.Duration) {
			perf.add(i, n)
			tracker.Tell(i, n, took)
		})
		if tracker.StallAborted() && sendErr != nil {
			sendErr = fmt.Errorf("stalled stream aborted by watchdog: %w", sendErr)
		}
		tracker.Done(sendErr)
		closing = finish()
	} else {
		from := int64(0)
		if len(ranges) > 0 {
			from = ranges[0].Start
		}
		sendErr = sendStream(chans[0].sec, f, from, size, sess.spec.BlockSize)
	}
	sess.data.retire(chans, sess.spec.Mode, sendErr == nil)
	if sendErr != nil {
		sess.observeTransfer(time.Since(start), false)
		sess.log.Warn("transfer.abort", traceFields([]any{"op", "RETR", "path", p, "err", sendErr}, sess.cmdSpan)...)
		sess.complete(closing, ftp.CodeTransferAborted, errText(sendErr))
		return
	}
	sess.reportUsage("RETR", p, totalLen(ranges), time.Since(start))
	sess.complete(closing, ftp.CodeClosingData, "Transfer complete")
}

// handleStor receives a file, emitting restart markers while it runs.
func (sess *session) handleStor(params string) {
	p := sess.resolve(params)
	if !sess.requireDataAuth() {
		return
	}
	restart := sess.restart
	sess.restart = nil
	var f dsi.File
	var err error
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
			sess.refuseTransfer(ftp.CodeCantOpenData, err)
			return
		}
		sess.reply(ftp.CodeFileStatusOK, "Opening data connection")
		sess.log.Info("transfer.start", traceFields([]any{"op", "STOR", "path", p}, sess.cmdSpan)...)
		offset := int64(0)
		if len(restart) == 1 && restart[0].Start == 0 {
			offset = restart[0].End
		}
		n, recvErr := recvStream(chans[0].sec, f, offset, sess.spec.BlockSize)
		closeChannels(chans)
		if recvErr != nil {
			sess.observeTransfer(time.Since(start), false)
			sess.log.Warn("transfer.abort", traceFields([]any{"op", "STOR", "path", p, "err", recvErr}, sess.cmdSpan)...)
			sess.reply(ftp.CodeTransferAborted, errText(recvErr))
			return
		}
		sess.reportUsage("STOR", p, n, time.Since(start))
		sess.reply(ftp.CodeClosingData, "Transfer complete")
		return
	}

	// MODE E receive with restart markers.
	received := FromRanges(restart)
	rcv, err := sess.data.beginReceive(sess.channelParams(), sess.streamLabel("STOR"), "STOR")
	if err != nil {
		sess.refuseTransfer(ftp.CodeCantOpenData, err)
		return
	}

	sess.reply(ftp.CodeFileStatusOK, "Opening data connection")
	sess.log.Info("transfer.start", traceFields([]any{"op", "STOR", "path", p}, sess.cmdSpan)...)

	// Restart markers carry *which ranges* landed (for checkpointing), perf
	// markers *per-stripe throughput counters* (for in-flight monitoring);
	// both are framed on the same tick.
	perf := &perfTracker{}
	// Capture the command span and the logger before launching the marker
	// goroutine: it must not read the session concurrently with the loop.
	cmdSpan, log := sess.cmdSpan, sess.log
	lastRanges := ""
	finish := sess.startMarkers(func(closing bool) []ftp.Reply {
		var set []ftp.Reply
		// The closing set carries the final ranges even when a tick already
		// sent them, as it carries the end-total 112s; markers are idempotent.
		if m := received.Marker(); m != "" && (closing || m != lastRanges) {
			set = append(set, ftp.Reply{Code: ftp.CodeRestartMarker, Lines: []string{"Range Marker " + m}})
			// Each restart marker is a durable checkpoint: logged once per
			// range set, it shows on /debug/events how far a later resume
			// could pick up.
			if m != lastRanges {
				log.Info("transfer.checkpoint", traceFields([]any{"path", p, "ranges", m}, cmdSpan)...)
			}
			lastRanges = m
		}
		return append(set, perf.frame(closing)...)
	})
	res := recvModeE(rcv.accept, f, received, sess.spec.BlockSize, sess.spec.Parallelism, func(i int, n int64, took time.Duration) {
		perf.add(i, n)
		rcv.tracker.Tell(i, n, took)
	}, rcv.canceled)
	if rcv.tracker.StallAborted() && res.Err != nil {
		res.Err = fmt.Errorf("stalled stream aborted by watchdog: %w", res.Err)
	}
	rcv.finish(res.Err)
	closing := finish()

	if res.Err != nil {
		sess.observeTransfer(time.Since(start), false)
		sess.log.Warn("transfer.abort", traceFields([]any{"op", "STOR", "path", p, "err", res.Err}, sess.cmdSpan)...)
		sess.complete(closing, ftp.CodeTransferAborted, errText(res.Err))
		return
	}
	sess.reportUsage("STOR", p, res.Received.Covered(), time.Since(start))
	sess.complete(closing, ftp.CodeClosingData, "Transfer complete")
}

// startMarkers runs the marker side of one MODE E transfer: every marker
// interval it writes what frame(false) returns — the markers of what moved
// since the last tick. The function it returns stops the ticks and returns
// frame(true), the closing set, unwritten: the handler sends it with the
// completion reply (complete). With no interval there are no markers at all
// and frame is never called. frame's calls do not overlap.
func (sess *session) startMarkers(frame func(closing bool) []ftp.Reply) (finish func() []ftp.Reply) {
	interval := sess.markerInterval()
	if interval <= 0 {
		return func() []ftp.Reply { return nil }
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				sess.replies(frame(false)...)
			case <-stop:
				return
			}
		}
	}()
	return func() []ftp.Reply {
		close(stop)
		<-done
		return frame(true)
	}
}

// complete ends a transfer command: its closing markers and its completion
// reply, in that order and in one write.
func (sess *session) complete(closing []ftp.Reply, code int, text string) {
	sess.replies(append(closing, ftp.Reply{Code: code, Lines: []string{text}})...)
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
	p := sess.resolve(params)
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
	if werr == nil {
		werr = closeWrite(chans[0].sec)
	}
	closeChannels(chans)
	if werr != nil {
		sess.reply(ftp.CodeTransferAborted, errText(werr))
		return
	}
	sess.reply(ftp.CodeClosingData, "MLSD complete")
}

// traceFields appends span's wire ids to a record's key/value list so
// records and spans cross-reference; a nil span appends nothing. The ids
// are rendered when the record is read (Span.LogIDs).
func traceFields(kv []any, span *obs.Span) []any {
	if span != nil {
		trace, id := span.LogIDs()
		kv = append(kv, "trace", trace, "span", id)
	}
	return kv
}

// The outcome-labeled transfer histograms and the per-verb byte counters,
// named once rather than once a transfer.
var (
	transferSecondsOK  = obs.Name("gridftp.server.transfer_seconds", "outcome=ok")
	transferSecondsErr = obs.Name("gridftp.server.transfer_seconds", "outcome=err")
	bytesRETR          = obs.Name("gridftp.server.bytes", "RETR")
	bytesSTOR          = obs.Name("gridftp.server.bytes", "STOR")
)

// observeTransfer feeds the transfer latency histograms: the unlabeled
// aggregate plus the ok|err outcome split.
func (sess *session) observeTransfer(dur time.Duration, ok bool) {
	reg := sess.srv.cfg.Obs.Registry()
	reg.Histogram("gridftp.server.transfer_seconds", obs.DefaultDurationBuckets).Observe(dur.Seconds())
	name := transferSecondsOK
	if !ok {
		name = transferSecondsErr
	}
	reg.Histogram(name, obs.DefaultDurationBuckets).Observe(dur.Seconds())
}

// reportUsage records a completed transfer; op is RETR or STOR.
func (sess *session) reportUsage(op, path string, bytes int64, dur time.Duration) {
	reg := sess.srv.cfg.Obs.Registry()
	reg.Counter("gridftp.server.transfers_total").Inc()
	name := bytesSTOR
	if op == "RETR" {
		name = bytesRETR
	}
	reg.Counter(name).Add(bytes)
	sess.observeTransfer(dur, true)
	sess.cmdSpan.SetAttr("bytes", bytes)
	sess.log.Info("transfer.complete", traceFields([]any{"op", op, "path", path,
		"bytes", bytes, "dur", dur.Round(time.Microsecond)}, sess.cmdSpan)...)
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

// streamLabel names this session's current transfer in the stream health
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

func totalLen(rs []Range) int64 {
	var n int64
	for _, r := range rs {
		n += r.Len()
	}
	return n
}
