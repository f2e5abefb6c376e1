package transfer

import (
	"errors"
	"time"

	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/obs"
)

// Warm session pairs. A hosted service sees the same user move data between
// the same two endpoints again and again, and most of what a small task costs
// is not its files: dialling, authenticating and delegating the pair, and
// wiring the inter-site data path. So a successful attempt parks its primary
// pair instead of closing it, and the next task between the same endpoints
// adopts it and finds the data path still wired — its first STOR/RETR goes
// out with no PASV, PORT, connection or handshake. (Only together with
// control-channel listing, gridftp's MLSC: an MLSD walk would un-wire the
// pair before the first file.)
//
// What is left of such a task's control plane is two flights per session,
// each written whole before anything of it is read. The plan: SITE TRACE and
// SITE TASK to both sessions, and behind them on the source MLST and a
// speculative MLSC of the task's path (firstFlight) — both sessions answer,
// which is the liveness check, and the task knows its files. The files: every
// MKD of the destination tree, owed, and every STOR behind them; every RETR
// on the source (schedule, gridftp.Pipeline). Only a tree deeper than one
// level adds source flights, one per level. A dialled pair sends the same plan
// flight behind the login's USER and MODE E and behind DELG, so the login's
// replies come back with it, and wires the data path inside its two flights:
// the destination's half of the plan flight ends with PASV, and the source's
// PORT is owed and leaves with the first RETR, so a cold task too is two
// flights per session. (An empty tree leaves that PASV unused.) Four rules
// keep adoption safe:
//
//	W1  Only a pair whose attempt succeeded is parked, and any error on an
//	    adopted pair closes it. After a failure nothing is known about what
//	    the servers still hold (gridftp's S2), and a pair is cheap next to a
//	    wrong byte. Parked pairs are invalidated in one place, dropParked, as
//	    flushPools is the one place for a client's data state.
//	W2  Only a task's first attempt adopts; a retry always dials, so §VI.B's
//	    "reauthenticate with the stored short-term certificate and restart"
//	    is literally what every attempt after the first does, and a pair is
//	    never the reason two attempts in a row fail. And a pair is neither
//	    parked nor adopted within parkMargin of the earlier of its proxies'
//	    expiry and the end of its delegated lifetime: data channels opened
//	    later in the task authenticate with exactly those.
//	W3  The adoption flight proves the two control channels and nothing
//	    else. The inter-site path can have died while the pair was parked —
//	    both servers answer, and the first STOR/RETR goes out over pooled
//	    channels that no longer exist. The attempt fails within about two
//	    round trips, is counted like any other, and the cold attempt follows
//	    at once: RetryDelay is for a fault that needs time to clear, and
//	    this one cleared when the pair was closed.
//	W4  A parked pair holds two server sessions, a listener and the
//	    goroutines behind them, so it is bounded four ways: storing a new
//	    activation drops the pairs parked for that (endpoint, user), as
//	    registering an endpoint again drops the pairs parked to or from it;
//	    a pair nobody adopts within parkedIdle is closed; at most maxParked
//	    are parked service-wide, the oldest going first; and Close drops all.
//
// One pair per key, and only a task's primary pair: its extra workers exist
// only above a pipeline window of bytes, where a dial is amortised. There is
// no keep-alive — the server has no idle timeout to defeat and the simulator
// no NAT, so a ticker per pair would be work nobody reads.
const (
	// parkedIdle is how long a parked pair waits for a task.
	parkedIdle = 30 * time.Second
	// maxParked bounds the parked pairs, and so the sessions, listeners and
	// goroutines that outlive tasks, service-wide.
	maxParked = 16
	// parkMargin is how far from its deadline a pair must still be (W2): a
	// task adopted at the margin finishes before its credentials lapse unless
	// it runs longer than this, and then it fails over like any attempt.
	parkMargin = 5 * time.Minute
	// delegatedLifetime is what dialPair asks of Delegate.
	delegatedLifetime = 2 * time.Hour
)

// pairKey is what a task must share with a parked pair to adopt it: the
// user and endpoints, the two activation credentials the pair's sessions
// authenticated with — a re-activation mints new ones, so a pair from before
// it can never match — and whether the destination holds a DCSC context, so
// that cross-CA and same-CA tasks between the same endpoints never share.
type pairKey struct {
	user             string
	src, dst         string
	srcCred, dstCred *gsi.Credential
	dcsc             bool
}

// usable reports whether the pair is far enough from its deadline (W2).
func (p *sessionPair) usable(now time.Time) bool {
	return now.Add(parkMargin).Before(p.deadline)
}

// relabel is all an adopted pair is told about its new task — the trace to
// join and the label to publish streams under — and all the task asks before
// its files: the walk of planPath starts behind the source's two commands
// (firstFlight). Both sessions at once, and both flights read before relabel
// returns: it is also the liveness check of the two control channels and,
// like the first flight of a dialled pair, the task's round-trip estimate.
func (p *sessionPair) relabel(sc obs.SpanContext, taskLabel, planPath string) error {
	setup := gridftp.SessionSetup{Trace: sc, Task: taskLabel}
	var dstErr error
	dstDone := make(chan struct{})
	go func() {
		defer close(dstDone)
		_, dstErr = firstFlight(p.dst, setup, "", false)
	}()
	start := time.Now()
	walk, srcErr := firstFlight(p.src, setup, planPath, false)
	p.rtt = time.Since(start)
	p.walk = walk
	<-dstDone
	return errors.Join(srcErr, dstErr)
}

// park keeps a pair whose attempt succeeded (W1) for the next task with its
// key, or closes it: when the service is closed, the pair is near its
// deadline (W2), its credentials are no longer the current activations, or a
// pair is already parked under the key — of several tasks finishing with the
// same key the first parks and the rest close.
func (s *Service) park(p *sessionPair) {
	p.dst.OnPerf(nil) // the finished task's progress view
	now := time.Now()
	k := p.key
	current := func(endpoint string, cred *gsi.Credential) bool {
		a := s.activations[actKey(endpoint, k.user)]
		return a != nil && a.cred == cred
	}
	s.mu.Lock()
	if s.closed || s.parked[k] != nil || !p.usable(now) ||
		!current(k.src, k.srcCred) || !current(k.dst, k.dstCred) {
		s.mu.Unlock()
		p.Close()
		return
	}
	p.parkedAt = now
	p.idle = time.AfterFunc(parkedIdle, func() {
		s.dropParked(func(q *sessionPair) bool { return q == p })
	})
	s.parked[k] = p
	var oldest *sessionPair
	if len(s.parked) > maxParked {
		for _, q := range s.parked {
			if oldest == nil || q.parkedAt.Before(oldest.parkedAt) {
				oldest = q
			}
		}
	}
	s.parkedGauge()
	s.mu.Unlock()
	if oldest != nil {
		s.dropParked(func(q *sessionPair) bool { return q == oldest })
	}
}

// adopt hands the pair parked under key to the caller, which owns it from
// here: it is no longer parked, and the caller parks or closes it. Pairs that
// reached their deadline while parked are dropped first (W2).
func (s *Service) adopt(key pairKey) *sessionPair {
	now := time.Now()
	s.dropParked(func(p *sessionPair) bool { return !p.usable(now) })
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.parked[key]
	if p != nil {
		delete(s.parked, key)
		p.idle.Stop()
		s.parkedGauge()
	}
	return p
}

// dropParked is the one place parked pairs are invalidated: every pair match
// selects leaves the table and is hung up on before dropParked returns, and
// its server sessions end half a round trip later. A pair that was adopted in
// the meantime is not in the table and is not touched.
func (s *Service) dropParked(match func(*sessionPair) bool) {
	s.mu.Lock()
	var drop []*sessionPair
	for k, p := range s.parked {
		if match(p) {
			delete(s.parked, k)
			p.idle.Stop()
			drop = append(drop, p)
		}
	}
	if len(drop) > 0 {
		s.parkedGauge()
	}
	s.mu.Unlock()
	for _, p := range drop {
		p.Close()
	}
}

// parkedGauge publishes the parked population; s.mu is held.
func (s *Service) parkedGauge() {
	s.cfg.Obs.Registry().Gauge("transfer.parked_pairs").Set(int64(len(s.parked)))
}

// Close closes every parked session pair and parks no more: tasks still
// running finish as they would have and close their own pairs. The service
// keeps no other resource that outlives a task.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.dropParked(func(*sessionPair) bool { return true })
}
