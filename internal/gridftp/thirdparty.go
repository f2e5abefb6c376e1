package gridftp

import (
	"fmt"
	"time"

	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/obs"
)

// DCSCTarget selects which endpoint of a third-party transfer receives a
// DCSC command.
type DCSCTarget int

const (
	// DCSCNone sends no DCSC command (conventional DCAU: both endpoints
	// must trust each other's CA).
	DCSCNone DCSCTarget = iota
	// DCSCSource installs the context on the source (sending) server.
	DCSCSource
	// DCSCDest installs the context on the destination (receiving) server.
	DCSCDest
	// DCSCBoth installs the context on both servers — used with a random
	// self-signed credential for clients that "desire higher security"
	// (§V).
	DCSCBoth
)

// ThirdPartyOptions configure a third-party transfer.
type ThirdPartyOptions struct {
	// Striped requests SPAS/SPOR striped listeners on the destination.
	Striped bool
	// DCSC, when non-nil, is the credential installed per DCSCTarget.
	DCSC       *gsi.Credential
	DCSCTarget DCSCTarget
	// Restart seeds the transfer with already-received ranges.
	Restart []Range
	// OnMarker receives restart markers from the destination.
	OnMarker func([]Range)
	// Trace, when valid, is forwarded to both endpoints via SITE TRACE so
	// the source's RETR span and the destination's STOR span join the
	// caller's distributed trace. Endpoints without the TRACE feature
	// simply keep rooting their spans locally.
	Trace obs.SpanContext
}

// ThirdPartyResult reports the outcome.
type ThirdPartyResult struct {
	Duration time.Duration
	// Markers holds the last restart markers observed (for retries).
	Markers []Range
}

// thirdPartyWiring marks an established third-party data path: the
// destination server listens (PASV/SPAS), the source server holds its
// address(es) (PORT/SPOR), and whatever channels they opened sit in their
// pools. Both clients of the pair point at the same value, and either
// one's flushPools drops its pointer — so "still wired" is "both still
// hold the pointer this pair was wired with".
type thirdPartyWiring struct {
	striped bool
}

// wire (re-)establishes the pair's data path unless it is still wired for
// the requested striping. PASV and PORT make both servers drop every pooled
// channel, so after a re-wire stale bytes can never be read as the next
// file. Clients dialled with DisableChannelCache never stay wired.
func wire(src, dst *Client, striped bool) error {
	if w := src.wiring; w != nil && w == dst.wiring && w.striped == striped {
		return nil
	}
	// Passive first: the destination (receiver) listens.
	addrs, err := dst.Passive(striped)
	if err != nil {
		return fmt.Errorf("gridftp: destination passive: %w", err)
	}
	if err := src.Port(addrs); err != nil {
		return fmt.Errorf("gridftp: source port: %w", err)
	}
	if src.data.cache && dst.data.cache {
		w := &thirdPartyWiring{striped: striped}
		src.wiring, dst.wiring = w, w
	}
	return nil
}

// ThirdParty performs a third-party transfer: the client directs src to
// send srcPath directly to dst as dstPath — data never touches the client
// (§II.C, §VII of the paper). The destination is the listener, the source
// issues the connects, exactly as the protocol requires.
//
// The data path is established once per (src, dst) pair and reused: while
// the pair stays wired, later calls skip PASV/PORT and the servers pick up
// their pooled channels, so a run of files pays connection set-up and the
// DCAU handshake once. Anything that flushes either client's pools — a
// negotiation change, the client's own Get/Put/List, Close — or any failed
// call un-wires the pair, and the next call starts from PASV/PORT again.
func ThirdParty(src *Client, srcPath string, dst *Client, dstPath string, opts ThirdPartyOptions) (res *ThirdPartyResult, err error) {
	defer func() {
		if err != nil {
			src.flushPools()
			dst.flushPools()
		}
	}()
	if opts.DCSC != nil {
		switch opts.DCSCTarget {
		case DCSCSource:
			if err := src.SendDCSC(opts.DCSC); err != nil {
				return nil, fmt.Errorf("gridftp: DCSC to source: %w", err)
			}
		case DCSCDest:
			if err := dst.SendDCSC(opts.DCSC); err != nil {
				return nil, fmt.Errorf("gridftp: DCSC to destination: %w", err)
			}
		case DCSCBoth:
			if err := src.SendDCSC(opts.DCSC); err != nil {
				return nil, fmt.Errorf("gridftp: DCSC to source: %w", err)
			}
			if err := dst.SendDCSC(opts.DCSC); err != nil {
				return nil, fmt.Errorf("gridftp: DCSC to destination: %w", err)
			}
		}
	}

	if opts.Trace.Valid() {
		if _, err := src.PropagateTrace(opts.Trace); err != nil {
			return nil, fmt.Errorf("gridftp: trace to source: %w", err)
		}
		if _, err := dst.PropagateTrace(opts.Trace); err != nil {
			return nil, fmt.Errorf("gridftp: trace to destination: %w", err)
		}
	}

	// Both endpoints must agree on the data channel parameters; the
	// client has already negotiated them per-session.
	if err := wire(src, dst, opts.Striped); err != nil {
		return nil, err
	}
	if len(opts.Restart) > 0 {
		marker := FromRanges(opts.Restart).Marker()
		if _, err := dst.cmdExpect("REST", marker, ftp.CodeNeedAccount); err != nil {
			return nil, fmt.Errorf("gridftp: destination REST: %w", err)
		}
		if _, err := src.cmdExpect("REST", marker, ftp.CodeNeedAccount); err != nil {
			return nil, fmt.Errorf("gridftp: source REST: %w", err)
		}
	}

	start := time.Now()
	dst.resetPerf()
	var lastMarkers []Range

	// Issue STOR on the destination and RETR on the source; the replies
	// stream back concurrently on the two control channels.
	dst.countCommand("STOR")
	if err := dst.ctrl.Cmd("STOR", "%s", dstPath); err != nil {
		return nil, err
	}
	src.countCommand("RETR")
	if err := src.ctrl.Cmd("RETR", "%s", srcPath); err != nil {
		return nil, err
	}

	type final struct {
		reply ftp.Reply
		err   error
	}
	dstCh := make(chan final, 1)
	go func() {
		r, err := dst.ctrl.ReadFinalReply(func(p ftp.Reply) {
			if ranges := dst.handlePreliminary(p); ranges != nil {
				lastMarkers = ranges
				if opts.OnMarker != nil {
					opts.OnMarker(ranges)
				}
			}
		})
		dstCh <- final{r, err}
	}()
	srcReply, srcErr := src.ctrl.ReadFinalReply(nil)
	dstFinal := <-dstCh

	res = &ThirdPartyResult{Duration: time.Since(start), Markers: lastMarkers}
	if srcErr != nil {
		return res, fmt.Errorf("gridftp: source control channel: %w", srcErr)
	}
	if dstFinal.err != nil {
		return res, fmt.Errorf("gridftp: destination control channel: %w", dstFinal.err)
	}
	if err := srcReply.Err(); err != nil {
		return res, fmt.Errorf("gridftp: source: %w", err)
	}
	if err := dstFinal.reply.Err(); err != nil {
		return res, fmt.Errorf("gridftp: destination: %w", err)
	}
	return res, nil
}
