package gridftp

import (
	"cmp"
	"fmt"
	"strings"
	"time"

	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gsi"
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

// wired reports whether the pair's data path is established for the
// requested striping: both clients still hold the wiring they were given
// together.
func wired(src, dst *Client, striped bool) bool {
	w := src.wiring
	return w != nil && w == dst.wiring && w.striped == striped
}

// wire (re-)establishes the pair's data path unless it is still wired for
// the requested striping. PASV and PORT make both servers drop every pooled
// channel, so after a re-wire stale bytes can never be read as the next
// file. Clients dialled with DisableChannelCache never stay wired. At most
// the PASV is waited for — not at all when Passive already asked, in a flight
// of its own — and the PORT is owed (Port): its reply comes back with the RETR
// written behind it, so the first STOR and RETR leave as soon as the
// destination's address is known.
func wire(src, dst *Client, striped bool) error {
	if wired(src, dst, striped) {
		return nil
	}
	// Passive first: the destination (receiver) listens. Its address serves
	// this wiring only: the channels of the transfers to come pool behind it.
	addrs, err := dst.Passive(striped)
	if err != nil {
		return fmt.Errorf("gridftp: destination passive: %w", err)
	}
	dst.passiveAddrs = nil
	if err := src.Port(addrs); err != nil {
		return fmt.Errorf("gridftp: source port: %w", err)
	}
	if src.data.cache && dst.data.cache {
		w := &thirdPartyWiring{striped: striped}
		src.wiring, dst.wiring = w, w
	}
	return nil
}

// Pipeline owns the third-party transfers in flight on one (src, dst) pair
// of sessions, oldest first. Begin writes a transfer's STOR and RETR behind
// whatever is already in flight and reads nothing; both servers take their
// queued commands in order, over the data path the pair is wired with, so
// a run of small files costs one control round trip for the run instead of
// one per file (command pipelining, §II.A [11]). Next reads the oldest
// transfer's replies and runs its completion.
//
// While a Pipeline has transfers in flight the two sessions are its own:
// the caller sends nothing else on them. What keeps a window of transfers
// from tripping over each other:
//
//   - A command that expects a reply of its own is never written behind a
//     transfer, whose replies it would read as its own. Begin first drains
//     the FIFO — completions run, in order — whenever the transfer needs a
//     control round trip before its STOR/RETR: the pair is not wired for
//     the requested striping (always so for sessions dialled with
//     DisableChannelCache), or Restart, DCSC or Trace is set.
//     SetParallelism drains the same way when it changes anything.
//   - A transfer that fails leaves both servers without a data path (see
//     session.refuseTransfer and dataPath.retire), so everything queued
//     behind it is refused at once rather than dialling, or waiting for, a
//     peer that has moved on; and it un-wires the pair here, so the next
//     Begin drains what is left before it negotiates again. Every queued
//     transfer still gets its own completion with its own outcome.
//   - One receive never takes more fresh connections than the negotiated
//     parallelism (dataPath.beginReceive), so with the channel cache off at
//     a server the connections opened for the next file wait for it.
//
// The directories the transfers land in are created the same way (Mkdirs):
// their MKDs are written ahead of the first STOR and nothing waits for them.
type Pipeline struct {
	src, dst *Client
	inFlight []pipelined
	// refused holds the reply to every MKD of Mkdirs that the destination
	// refused, by directory, until a STOR under the directory has judged it.
	refused map[string]error
	// parallelism is what SetParallelism last asked both sessions for, its
	// replies perhaps still owed; 0 before it asks and after a failure.
	parallelism int
}

// pipelined is one transfer whose STOR and RETR have been written and
// whose replies have not been read.
type pipelined struct {
	start    time.Time
	dstPath  string
	onMarker func([]Range)
	done     func(*ThirdPartyResult, error)
}

// NewPipeline returns the (empty) pipeline of a session pair.
func NewPipeline(src, dst *Client) *Pipeline {
	return &Pipeline{src: src, dst: dst}
}

// InFlight is the number of transfers begun and not yet completed.
func (p *Pipeline) InFlight() int { return len(p.inFlight) }

// Begin starts a transfer of srcPath on the source to dstPath on the
// destination: it negotiates whatever the transfer needs (see Pipeline for
// when that drains the transfers in flight first), writes STOR and RETR,
// and returns without reading their replies. done runs — from Next, Drain,
// or a later call that has to drain — once both servers have answered. An
// error means the transfer was not started; done will not run, and the pair
// is un-wired.
func (p *Pipeline) Begin(srcPath, dstPath string, opts ThirdPartyOptions, done func(*ThirdPartyResult, error)) (err error) {
	src, dst := p.src, p.dst
	if opts.DCSC != nil || len(opts.Restart) > 0 || !wired(src, dst, opts.Striped) {
		p.Drain()
	}
	defer func() {
		if err != nil {
			p.unwire()
		}
	}()
	if opts.DCSC != nil {
		if opts.DCSCTarget == DCSCSource || opts.DCSCTarget == DCSCBoth {
			if err := src.SendDCSC(opts.DCSC); err != nil {
				return fmt.Errorf("gridftp: DCSC to source: %w", err)
			}
		}
		if opts.DCSCTarget == DCSCDest || opts.DCSCTarget == DCSCBoth {
			if err := dst.SendDCSC(opts.DCSC); err != nil {
				return fmt.Errorf("gridftp: DCSC to destination: %w", err)
			}
		}
	}

	// Both endpoints must agree on the data channel parameters; the
	// client has already negotiated them per-session.
	if err := wire(src, dst, opts.Striped); err != nil {
		return err
	}
	if len(opts.Restart) > 0 {
		if err := dst.rest(opts.Restart); err != nil {
			return fmt.Errorf("gridftp: destination REST: %w", err)
		}
		if err := src.rest(opts.Restart); err != nil {
			return fmt.Errorf("gridftp: source REST: %w", err)
		}
	}

	// STOR on the destination, RETR on the source; the replies stream back
	// on the two control channels and are read by Next.
	if err := dst.send("STOR", dstPath); err != nil {
		return err
	}
	if err := src.send("RETR", srcPath); err != nil {
		return err
	}
	p.inFlight = append(p.inFlight, pipelined{start: time.Now(), dstPath: dstPath, onMarker: opts.OnMarker, done: done})
	return nil
}

// Mkdirs asks the destination for the directories the transfers to come will
// land in, a parent before what lies under it, and waits for none of them:
// each MKD is a session command left owed (settle.go), so its reply is read
// ahead of the first reply the destination is next asked for — the PASV that
// wires a pair, or the first STOR's 150 on a wired one or on one whose PASV
// was asked earlier (Passive) — and the tree costs no round trip of its own.
// (More directories than one flight carries, flightLen, cost one for each
// flight but the last.) An MKD is a command with a reply of its own, so the
// transfers in flight complete first.
//
// answered closes when the last of the replies has been read, whatever they
// said. On these sessions the STORs are ordered behind the MKDs by the channel
// they share; a STOR on any other session to the same destination has to wait
// for answered, or it may overtake the MKD of the directory it lands in.
//
// A refused MKD is not an error here: most are a directory that exists. The
// first STOR under the directory is the judge. It succeeds, and the refusal
// is forgotten; or it is refused too, and its error names the directory and
// carries the MKD's reply — and, like any failed transfer, un-wires the pair.
func (p *Pipeline) Mkdirs(dirs []string) (answered <-chan struct{}, err error) {
	p.Drain()
	done := make(chan struct{})
	unanswered := len(dirs)
	answer := func() {
		if unanswered--; unanswered == 0 {
			close(done)
		}
	}
	if unanswered == 0 {
		close(done)
	}
	for len(dirs) > 0 {
		n := flightLen(dirs)
		for _, d := range dirs[:n] {
			if err := p.dst.owe(sessionCmd{name: "MKD", params: d, code: ftp.CodePathCreated,
				apply:   func(bool) { answer() },
				refused: func(err error) { p.refuse(d, err); answer() }}); err != nil {
				return nil, err
			}
		}
		if dirs = dirs[n:]; len(dirs) > 0 {
			if err := p.dst.Settle(); err != nil {
				return nil, err
			}
		}
	}
	return done, nil
}

func (p *Pipeline) refuse(dir string, err error) {
	if p.refused == nil {
		p.refused = make(map[string]error)
	}
	p.refused[dir] = err
}

// judged takes the refused directories path lies under off the list — the
// STOR at path is their verdict — and returns the outermost and its MKD's
// reply; "" when there was none.
func (p *Pipeline) judged(path string) (dir string, mkdErr error) {
	for i := strings.LastIndexByte(path, '/'); i > 0 && len(p.refused) > 0; i = strings.LastIndexByte(path[:i], '/') {
		if err, ok := p.refused[path[:i]]; ok {
			dir, mkdErr = path[:i], err
			delete(p.refused, dir)
		}
	}
	return dir, mkdErr
}

// Next reads the replies of the oldest transfer in flight from both control
// channels — restart and performance markers as they come, then the two
// final replies — and runs its completion. It reports whether there was a
// transfer to complete. A failed transfer un-wires the pair.
func (p *Pipeline) Next() bool {
	if len(p.inFlight) == 0 {
		return false
	}
	t := p.inFlight[0]
	p.inFlight[0] = pipelined{}
	p.inFlight = p.inFlight[1:]
	res, err := p.readReplies(t)
	if err != nil {
		p.unwire()
	}
	t.done(res, err)
	return true
}

// unwire forgets the pair's data path and what it was last asked to
// negotiate: after a failure neither is known.
func (p *Pipeline) unwire() {
	p.src.flushPools()
	p.dst.flushPools()
	p.parallelism = 0
}

// Drain completes every transfer in flight, oldest first.
func (p *Pipeline) Drain() {
	for p.Next() {
	}
}

func (p *Pipeline) readReplies(t pipelined) (*ThirdPartyResult, error) {
	src, dst := p.src, p.dst
	dst.resetPerf()
	var lastMarkers []Range
	opened := false // the destination answered 150: the STOR was not refused
	type final struct {
		reply ftp.Reply
		err   error
	}
	dstCh := make(chan final, 1)
	go func() {
		r, err := dst.finalReply(func(pre ftp.Reply) {
			opened = opened || pre.Code == ftp.CodeFileStatusOK
			if ranges := dst.handlePreliminary(pre); ranges != nil {
				lastMarkers = ranges
				if t.onMarker != nil {
					t.onMarker(ranges)
				}
			}
		})
		dstCh <- final{r, err}
	}()
	srcReply, srcErr := src.finalReply(nil)
	dstFinal := <-dstCh

	res := &ThirdPartyResult{Duration: time.Since(t.start), Markers: lastMarkers}
	// An error beside the RETR's reply is the owed PORT's refusal: the cause.
	if srcErr != nil && srcReply.Code == 0 {
		return res, fmt.Errorf("gridftp: source control channel: %w", srcErr)
	}
	if dstFinal.err != nil {
		return res, fmt.Errorf("gridftp: destination control channel: %w", dstFinal.err)
	}
	// A STOR refused before any 150 is the cause, whatever the source made of
	// the data path it was left with: its 425 is the echo of this refusal (S2).
	// Under a directory whose MKD was refused, that in turn is the STOR's.
	dir, mkdErr := p.judged(t.dstPath)
	if err := dstFinal.reply.Err(); err != nil && !opened {
		if dir != "" {
			return res, fmt.Errorf("gridftp: destination: MKD %s was refused (%v), and so was the STOR under it: %w", dir, mkdErr, err)
		}
		return res, fmt.Errorf("gridftp: destination: %w", err)
	}
	if err := cmp.Or(srcErr, srcReply.Err()); err != nil {
		return res, fmt.Errorf("gridftp: source: %w", err)
	}
	if err := dstFinal.reply.Err(); err != nil {
		return res, fmt.Errorf("gridftp: destination: %w", err)
	}
	return res, nil
}

// SetParallelism negotiates n parallel streams on both sessions. A change
// is a command with a reply of its own (and re-wires the pair), so the
// transfers in flight complete first; the reply itself is left owed and comes
// back with the PASV, or the first RETR, of the next Begin. Asking for the
// value in effect is free, and the value in effect is the one last asked for:
// its replies need not have been read.
func (p *Pipeline) SetParallelism(n int) error {
	inEffect := p.parallelism
	if inEffect == 0 && p.src.spec.Parallelism == p.dst.spec.Parallelism {
		inEffect = p.src.spec.Parallelism
	}
	if n == inEffect {
		return nil
	}
	p.Drain()
	if err := p.src.SetParallelism(n); err != nil {
		return err
	}
	if err := p.dst.SetParallelism(n); err != nil {
		return err
	}
	p.parallelism = n
	return nil
}

// ThirdParty performs a third-party transfer: the client directs src to
// send srcPath directly to dst as dstPath — data never touches the client
// (§II.C, §VII of the paper). The destination is the listener, the source
// issues the connects, exactly as the protocol requires. It is a Pipeline
// with a window of one: the transfer is begun and its replies are read
// before the call returns.
//
// The data path is established once per (src, dst) pair and reused: while
// the pair stays wired, later calls skip PASV/PORT and the servers pick up
// their pooled channels, so a run of files pays connection set-up and the
// DCAU handshake once. Anything that flushes either client's pools — a
// negotiation change, the client's own Get/Put/List, Close — or any failed
// call un-wires the pair, and the next call starts from PASV/PORT again.
func ThirdParty(src *Client, srcPath string, dst *Client, dstPath string, opts ThirdPartyOptions) (res *ThirdPartyResult, err error) {
	p := NewPipeline(src, dst)
	if err := p.Begin(srcPath, dstPath, opts, func(r *ThirdPartyResult, e error) { res, err = r, e }); err != nil {
		return nil, err
	}
	p.Next()
	return res, err
}
