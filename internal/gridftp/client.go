package gridftp

import (
	"crypto/tls"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/streamstats"
)

// Client is a GridFTP client protocol interpreter with its own DTP, able
// to upload, download, list, and orchestrate third-party transfers.
type Client struct {
	ctrl  *ftp.Conn
	host  *netsim.Host
	cred  *gsi.Credential
	trust *gsi.TrustStore

	// delegKey is the server session's delegation public key (PKIX DER) as
	// the 234 carried it; Delegate signs over it.
	delegKey []byte

	spec    ChannelSpec
	restart []Range
	perfCB  func(PerfMarker)

	// obs receives client-side metrics: perf-marker observations feed
	// gauges/counters so callers can watch a transfer without polling.
	obs *obs.Obs
	// perfBytes holds the latest per-stripe byte counts reported by 112
	// markers for the current transfer; perfSeen counts markers.
	perfMu    sync.Mutex
	perfBytes map[int]int64
	perfSeen  int

	// data is this end of the data-channel path: the listener on the client
	// host that active-mode transfers (Get) accept on, the server's passive
	// address that passive-mode ones (Put, List) connect to, and the pooled
	// channels of both roles.
	data dataPath
	// wiring is non-nil while this session is one end of an established
	// third-party data path (see ThirdParty); flushPools drops it.
	wiring *thirdPartyWiring
	// passiveAddrs are what the server's last PASV (SPAS if passiveStriped)
	// answered, until a flush or a wiring takes them (Passive).
	passiveAddrs   []string
	passiveStriped bool

	// owed are the session commands written whose replies have not been
	// read, oldest first, and written is set from a write to the next read
	// (see settle.go).
	owed    []sessionCmd
	written bool

	// noMLSC is set once the server has answered MLSC as an unknown verb;
	// walks then list with MLSD alone.
	noMLSC bool

	// task labels the client's own transfers in the stream-telemetry
	// registry (SessionSetup.Task).
	task string
}

// DialOptions tweak client connection behaviour.
type DialOptions struct {
	// DisableChannelCache turns off data channel reuse across transfers.
	DisableChannelCache bool
	// Obs receives client-side metrics and logs (nil = disabled).
	Obs *obs.Obs
	// Streams, if non-nil, receives per-stream wire telemetry for this
	// client's MODE E transfers (see internal/obs/streamstats).
	Streams *streamstats.Registry
}

// Dial connects to a GridFTP server at addr from the given simulated host,
// performs the AUTH TLS security exchange with cred, and verifies the
// server against trust. It returns with the login's replies owed (settle.go):
// a refused login is the error of the first call that reads.
func Dial(host *netsim.Host, addr string, cred *gsi.Credential, trust *gsi.TrustStore) (*Client, error) {
	return DialWithOptions(host, addr, cred, trust, DialOptions{})
}

// DialWithOptions is Dial with explicit options.
func DialWithOptions(host *netsim.Host, addr string, cred *gsi.Credential, trust *gsi.TrustStore, opts DialOptions) (*Client, error) {
	raw, err := host.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("gridftp: dial %s: %w", addr, err)
	}
	c := &Client{
		ctrl:      ftp.NewConn(raw),
		host:      host,
		cred:      cred,
		trust:     trust,
		spec:      ChannelSpec{Mode: ModeExtended}.Normalize(),
		obs:       opts.Obs,
		perfBytes: make(map[int]int64),
		data:      newClientDataPath(host, opts),
	}
	// Neither AUTH TLS nor the ClientHello depends on what the server says
	// first, so both are written before anything is read: the 220 and the 234
	// come back ahead of the ServerHello, and the handshake's first read takes
	// them off the line reader (loginConn).
	login := &loginConn{Conn: c.ctrl.RW(), c: c, err: c.ctrl.Cmd("AUTH", "TLS")}
	tc := tls.Client(login, gsi.ClientTLSConfig(cred, trust))
	raw.SetDeadline(time.Now().Add(30 * time.Second))
	err = tc.Handshake()
	// A server that greets with 421 and hangs up, or refuses AUTH, fails the
	// handshake, perhaps at its first write; its reply is the error to report.
	if replyErr := login.replies(); replyErr != nil {
		raw.Close()
		return nil, replyErr
	}
	if err != nil {
		raw.Close()
		return nil, fmt.Errorf("gridftp: control handshake: %w", err)
	}
	raw.SetDeadline(time.Time{})
	if _, err := gsi.PeerIdentity(tc, trust); err != nil {
		raw.Close()
		return nil, fmt.Errorf("gridftp: server verification: %w", err)
	}
	c.ctrl.Upgrade(tc)
	// The server answers USER with the login's verdict, and its session starts
	// in RFC 959 stream mode, so the client's default (MODE E) is negotiated
	// explicitly. Both leave behind the handshake's Finished. The verdict is
	// owed before USER is written: a refusal is sent as soon as the handshake
	// ends, with the session, so USER's write can fail behind a 530 that is
	// already on its way, and the failed write reports it (send).
	c.owed = []sessionCmd{{name: "USER", params: ":globus-mapping:", code: ftp.CodeUserLoggedIn}}
	err = c.send("USER", ":globus-mapping:")
	if err == nil {
		err = c.owe(sessionCmd{name: "MODE", params: "E"})
	}
	if err != nil {
		raw.Close()
		return nil, err
	}
	return c, nil
}

// loginConn is the transport under the control channel's TLS client: the
// connection as ftp.Conn.RW gives it, reading through the line reader, with
// the two replies that precede the handshake on the wire taken off first.
type loginConn struct {
	net.Conn
	c *Client
	// read is set once the replies have been read; err is then the 220's
	// refusal, else the 234's — or, from the start, AUTH's failed write, which
	// only the greeting's refusal replaces.
	read bool
	err  error
}

// replies reads the 220 and the 234, whose DELGKEY line is the session's
// delegation key. A key that does not parse is no key: Delegate says so.
func (l *loginConn) replies() error {
	if !l.read {
		l.read = true
		var auth ftp.Reply
		if _, err := l.c.expect(ftp.CodeReadyForNewUser); err != nil {
			l.err = err
		} else if l.err == nil {
			auth, l.err = l.c.expect(ftp.CodeAuthOK)
		}
		for _, line := range auth.Lines {
			b64, ok := strings.CutPrefix(line, delegKeyPrefix)
			der, err := base64.StdEncoding.DecodeString(b64)
			if _, perr := x509.ParsePKIXPublicKey(der); ok && l.err == nil && err == nil && perr == nil {
				l.c.delegKey = der
			}
		}
	}
	return l.err
}

func (l *loginConn) Read(p []byte) (int, error) {
	if err := l.replies(); err != nil {
		return 0, err
	}
	return l.Conn.Read(p)
}

// newClientDataPath is a client's end of the data-channel path: every
// connection starts or ends on the client host.
func newClientDataPath(host *netsim.Host, opts DialOptions) dataPath {
	return dataPath{
		dialFrom: []*netsim.Host{host},
		wait:     defaultDataWait,
		cache:    !opts.DisableChannelCache,
		streams:  opts.Streams,
	}
}

// Close writes QUIT and hangs up. It reads nothing — not the 221, nor replies
// still owed, which nothing can use after Close — so it never waits on the
// server, whose session ends half a round trip later.
func (c *Client) Close() error {
	c.flushPools()
	c.data.closeListeners()
	c.ctrl.Cmd("QUIT", "")
	return c.ctrl.Close()
}

// flushPools is the one place client-side data-channel state is
// invalidated: every path that resets the server's data state (PASV, PORT
// and their striped forms) or changes what a channel must look like
// (mode, parallelism, protection, DCAU, DCSC, transport, delegation) comes
// through here, so the client's pools, its passive address and its
// third-party wiring can never outlive the server's.
func (c *Client) flushPools() {
	c.data.flush()
	c.data.targets = nil
	c.wiring = nil
	c.passiveAddrs = nil
}

// countCommand records one control-channel command on the per-verb
// counter, giving observability stacks (and tests) a command trace: e.g.
// asserting a directory transfer issued zero per-file SIZE commands.
func (c *Client) countCommand(name string) {
	commandCounters.Lock()
	metric, ok := commandCounters.names[name]
	if !ok {
		metric = obs.Name("gridftp.client.commands", "cmd="+name)
		commandCounters.names[name] = metric
	}
	commandCounters.Unlock()
	c.obs.Registry().Counter(metric).Inc()
}

// commandCounters names each verb's counter once a process, not once a
// command. The verbs are the client's own, a fixed handful.
var commandCounters = struct {
	sync.Mutex
	names map[string]string
}{names: make(map[string]string)}

// SessionSetup names the per-session settings a caller applies after
// Delegate; zero fields are skipped.
type SessionSetup struct {
	// Trace binds the server's transfer spans to the caller's trace
	// ("SITE TRACE <traceparent>"). A server without SITE TRACE declines it
	// and roots its spans locally; that is not an error.
	Trace obs.SpanContext
	// MarkerInterval is the session's cadence for restart markers (when the
	// server receives) and performance markers ("OPTS RETR Markers=", in
	// milliseconds).
	MarkerInterval time.Duration
	// Task labels the session's transfers in the stream-telemetry plane,
	// here and — by "SITE TASK" — on the server, so both ends of a transfer
	// share one label; a server without SITE TASK labels only this end.
	Task string
	// DCSC is installed as the data channel security context (SendDCSC).
	DCSC *gsi.Credential
}

// Setup writes the session's set-up commands and leaves their replies owed
// (settle.go): they come back, in order, with whatever the caller sends next
// — a session about to plan a transfer sends StartWalk, and the set-up costs
// it no round trip of its own — or with Settle. The settings take effect
// here as their replies are read, and a refused one is that read's error.
func (c *Client) Setup(s SessionSetup) error {
	var cmds []sessionCmd
	if s.Trace.Valid() {
		cmds = append(cmds, sessionCmd{name: "SITE", params: "TRACE " + obs.Inject(s.Trace), optional: true})
	}
	if s.MarkerInterval > 0 {
		cmds = append(cmds, sessionCmd{
			name: "OPTS", params: fmt.Sprintf("RETR Markers=%d;", int(s.MarkerInterval/time.Millisecond)),
			apply: func(bool) { c.spec.MarkerInterval = s.MarkerInterval },
		})
	}
	if s.Task != "" {
		cmds = append(cmds, sessionCmd{name: "SITE", params: "TASK " + s.Task, optional: true,
			apply: func(bool) { c.task = s.Task }})
	}
	if s.DCSC != nil {
		cmd, err := c.dcscCmd(s.DCSC)
		if err != nil {
			return err
		}
		cmds = append(cmds, cmd)
	}
	return c.owe(cmds...)
}

// Delegate delegates a proxy of the client credential to the server over
// the encrypted control channel; the server uses it to authenticate data
// channels on the user's behalf (required for DCAU unless DCSC is used). The
// server's key arrived in the 234, ahead of the handshake, so the proxy is
// signed here and sent as one command, and nothing is waited for: DELG's 200
// is owed (settle.go) like the login's 230, and a server that refuses either
// says so to the next call that reads the channel.
func (c *Client) Delegate(lifetime time.Duration) error {
	if c.cred == nil {
		return ErrLiteNoDelegation
	}
	if c.delegKey == nil {
		return errors.New("gridftp: the server's 234 offered no delegation key")
	}
	bundle, err := gsi.SignDelegation(c.cred, c.delegKey, lifetime)
	if err != nil {
		return err
	}
	c.flushPools() // the server's data security context changes
	return c.owe(sessionCmd{name: "DELG", params: base64.StdEncoding.EncodeToString(bundle)})
}

// Features runs FEAT and returns the advertised feature lines.
func (c *Client) Features() ([]string, error) {
	r, err := c.cmdExpect("FEAT", "", ftp.CodeFeatures)
	if err != nil {
		return nil, err
	}
	if len(r.Lines) >= 2 {
		return r.Lines[1 : len(r.Lines)-1], nil
	}
	return nil, nil
}

// The ranges the server accepts for "OPTS RETR Parallelism" and "BlockSize".
// The client leaves those replies owed, so it refuses out-of-range values
// itself, with the server's reply: the caller still hears at once.
const (
	maxParallelism             = 128
	minBlockSize, maxBlockSize = 1024, 64 << 20
)

func badOption(text string) error {
	return &ftp.ReplyError{Reply: ftp.Reply{Code: ftp.CodeParamSyntaxError, Lines: []string{text}}}
}

// SetParallelism negotiates the number of parallel data streams. The OPTS is
// written and its reply left owed (settle.go): the pools flush now, so the
// next transfer negotiates its data path again, and Parallelism follows when
// the reply is read, in that transfer's first flight.
func (c *Client) SetParallelism(n int) error {
	if n == c.spec.Parallelism {
		return nil
	}
	if n < 1 || n > maxParallelism {
		return badOption("Bad parallelism")
	}
	c.flushPools()
	return c.owe(sessionCmd{name: "OPTS", params: fmt.Sprintf("RETR Parallelism=%d,%d,%d;", n, n, n),
		apply: func(bool) { c.spec.Parallelism = n }})
}

// SetBlockSize negotiates the MODE E block size, its reply owed like
// SetParallelism's. Renegotiating the value already in effect is a no-op.
// The block-size ablation is its caller; the hosted scheduler never picks a
// block size. Block size is this tree's extension to OPTS: a server without
// it keeps its own, and so does the client.
func (c *Client) SetBlockSize(n int) error {
	if n == c.spec.BlockSize {
		return nil
	}
	if n < minBlockSize || n > maxBlockSize {
		return badOption("Bad block size")
	}
	return c.owe(sessionCmd{name: "OPTS", params: fmt.Sprintf("RETR BlockSize=%d;", n), optional: true,
		apply: func(accepted bool) {
			if accepted {
				c.spec.BlockSize = n
			}
		}})
}

// allocate announces the size of the next upload (ALLO, RFC 959) so the
// server can preallocate the destination file. ALLO is written and its reply
// left owed, to come back with the Put's next flight; a refusal is dropped
// there, since ALLO is advisory: a server without it grows the file instead.
func (c *Client) allocate(size int64) {
	if size > 0 {
		c.owe(sessionCmd{name: "ALLO", params: strconv.FormatInt(size, 10), refused: func(error) {}})
	}
}

// SetMode switches between stream (S) and extended block (E) mode.
func (c *Client) SetMode(m TransferMode) error {
	return c.batch(sessionCmd{name: "MODE", params: string(rune(m)), apply: func(bool) {
		c.spec.Mode = m
		c.spec = c.spec.Normalize()
		c.flushPools()
	}})
}

// SetDCAU sets the data channel authentication mode.
func (c *Client) SetDCAU(m DCAUMode) error {
	return c.batch(sessionCmd{name: "DCAU", params: string(rune(m)), apply: func(bool) {
		c.spec.DCAU = m
		if m == DCAUNone {
			c.spec.Prot = ProtClear
		}
		c.flushPools()
	}})
}

// SetTransport selects the data channel transport protocol: TCP (default)
// or UDT, the rate-based protocol GridFTP reaches through its XIO driver
// interface (§II.A [9]). UDT streams are not window- or loss-limited.
func (c *Client) SetTransport(tr netsim.Transport) error {
	name := "TCP"
	if tr == netsim.TransportUDT {
		name = "UDT"
	}
	return c.batch(sessionCmd{name: "OPTS", params: "RETR Transport=" + name + ";",
		apply: func(bool) { c.spec.Transport = tr; c.flushPools() }})
}

// SetProt sets the data channel protection level.
func (c *Client) SetProt(p ProtLevel) error {
	return c.batch(sessionCmd{name: "PBSZ", params: "0"},
		sessionCmd{name: "PROT", params: string(rune(p)), apply: func(bool) { c.spec.Prot = p; c.flushPools() }})
}

// SendDCSC installs a data channel security context on the server (§V):
// the server will both present and accept the given credential on its
// data channels. Works against the single DCSC-capable endpoint of a
// transfer even when the other endpoint is a legacy server.
func (c *Client) SendDCSC(cred *gsi.Credential) error {
	cmd, err := c.dcscCmd(cred)
	if err != nil {
		return err
	}
	return c.batch(cmd)
}

func (c *Client) dcscCmd(cred *gsi.Credential) (sessionCmd, error) {
	blob, err := EncodeDCSCBlob(cred)
	if err != nil {
		return sessionCmd{}, err
	}
	c.flushPools() // as it is written, like Delegate: Put relies on it
	return sessionCmd{name: "DCSC", params: "P " + blob}, nil
}

// ResetDCSC reverts the server's data channel security context ("DCSC D").
func (c *Client) ResetDCSC() error {
	return c.batch(sessionCmd{name: "DCSC", params: "D", apply: func(bool) { c.flushPools() }})
}

// SetRestart arms restart ranges (bytes already transferred) for the next
// transfer command.
func (c *Client) SetRestart(ranges []Range) { c.restart = ranges }

// dataContext is the security context for the client's own data channels
// (nil for credential-less GridFTP-Lite sessions, whose data channels run
// without DCAU).
func (c *Client) dataContext() *SecurityContext {
	if c.cred == nil {
		return nil
	}
	return &SecurityContext{
		Cred:           c.cred,
		Trust:          c.trust,
		ExpectIdentity: c.cred.Identity(),
	}
}

// channelParams is what the session has negotiated for its data channels.
func (c *Client) channelParams() channelParams {
	return channelParams{sec: c.dataContext(), spec: c.spec}
}

// sendRestart transmits any armed restart ranges.
func (c *Client) sendRestart() ([]Range, error) {
	ranges := c.restart
	c.restart = nil
	if len(ranges) == 0 {
		return nil, nil
	}
	return ranges, c.rest(ranges)
}

// rest arms ranges for the session's next transfer command. It settles first:
// were an owed refusal to come back in place of REST's 350, the caller would
// give up on a transfer whose ranges the server keeps armed for the next one.
func (c *Client) rest(ranges []Range) error {
	if _, err := c.settle(); err != nil {
		return err
	}
	_, err := c.cmdExpect("REST", FromRanges(ranges).Marker(), ftp.CodeNeedAccount)
	return err
}

// passive puts the server in passive mode and returns the data address.
// PASV — like SPAS, PORT and SPOR — resets the server's data state (it
// closes listeners and flushes both its channel pools), so any channels we
// still hold are now stale on the far end: flushing here keeps the pools
// in lockstep, which is what makes channel caching safe.
func (c *Client) passive() ([]string, error) {
	c.flushPools()
	r, err := c.cmdExpect("PASV", "", ftp.CodeEnteringPassive)
	if err != nil {
		return nil, err
	}
	open := strings.Index(r.Lines[0], "(")
	closeIdx := strings.LastIndex(r.Lines[0], ")")
	if open < 0 || closeIdx <= open {
		return nil, fmt.Errorf("gridftp: unparsable PASV reply %q", r.Lines[0])
	}
	return []string{r.Lines[0][open+1 : closeIdx]}, nil
}

// spas puts the (striped) server in striped passive mode and returns all
// data addresses.
func (c *Client) spas() ([]string, error) {
	c.flushPools()
	r, err := c.cmdExpect("SPAS", "", ftp.CodeEnteringExtPasv)
	if err != nil {
		return nil, err
	}
	if len(r.Lines) < 3 {
		return nil, fmt.Errorf("gridftp: unparsable SPAS reply %v", r.Lines)
	}
	return r.Lines[1 : len(r.Lines)-1], nil
}

// Passive exposes PASV/SPAS for third-party orchestration: it returns the
// receiver's listening addresses (one per stripe). They are remembered, and
// answered again without asking, until anything flushes the pools or a
// wiring takes them (wire): so a PASV written in a flight the session pays
// for anyway — a fresh hosted pair's first — costs the wiring no round trip.
func (c *Client) Passive(striped bool) (addrs []string, err error) {
	if c.passiveAddrs == nil || c.passiveStriped != striped {
		if striped {
			addrs, err = c.spas()
		} else {
			addrs, err = c.passive()
		}
		if err != nil {
			return nil, err
		}
		c.passiveAddrs, c.passiveStriped = addrs, striped
	}
	return c.passiveAddrs, nil
}

// Port sends the peer's data addresses to this (sender) server and leaves
// the 200 owed (settle.go): it comes back ahead of the replies of the transfer
// written behind it, so a refused PORT is that transfer's error.
func (c *Client) Port(addrs []string) error {
	c.flushPools()
	name := "PORT"
	if len(addrs) > 1 {
		name = "SPOR"
	}
	return c.owe(sessionCmd{name: name, params: strings.Join(addrs, " ")})
}

// ensurePassive guarantees the server is listening for data connections.
// It must run BEFORE the transfer command is sent: once the command is in
// flight the server is busy with the transfer and cannot answer PASV.
func (c *Client) ensurePassive() error {
	if len(c.data.targets) > 0 {
		return nil
	}
	addrs, err := c.passive()
	if err != nil {
		return err
	}
	c.data.targets = addrs
	return nil
}

// activeFlight writes an active-mode transfer's commands in one flight: PORT
// first — opening the client listener on first use — unless pooled channels
// will carry the transfer, then the n transfer commands write sends, and only
// then reads PORT's 200 (and whatever the session owed before it). Nothing in
// the flight depends on an earlier reply: a server that refuses PORT has no
// address to connect to and refuses the transfer too. On any failure the
// flight leaves nothing behind: the listener closes and the pools flush, so a
// transfer the server did start fails at its first connect; the transfer
// commands' final replies are read; the next transfer sends PORT again.
func (c *Client) activeFlight(n int, write func() error) error {
	port := len(c.data.pooledAccepted) == 0
	if port {
		if len(c.data.listeners) == 0 {
			if _, err := c.data.listen([]*netsim.Host{c.host}); err != nil {
				return err
			}
		}
		c.flushPools() // PORT resets the server's data state
		if err := c.send("PORT", c.data.listeners[0].Addr().String()); err != nil {
			return err
		}
	}
	if err := write(); err != nil {
		return err
	}
	var err error
	if port {
		_, err = c.expect(ftp.CodeOK)
	} else {
		_, err = c.settle()
	}
	if err != nil {
		c.data.closeListeners()
		c.flushPools()
		c.drainQueued(n)
	}
	return err
}

// parseOpeningSize extracts the announced byte count from a 150 reply of
// the form "Opening data connection for <path> (N bytes)"; 0 when absent.
func parseOpeningSize(r ftp.Reply) int64 {
	if r.Code != ftp.CodeFileStatusOK || len(r.Lines) == 0 {
		return 0
	}
	text := r.Lines[0]
	open := strings.LastIndexByte(text, '(')
	if open < 0 || !strings.HasSuffix(text, " bytes)") {
		return 0
	}
	n, err := strconv.ParseInt(text[open+1:len(text)-len(" bytes)")], 10, 64)
	if err != nil || n < 0 {
		return 0
	}
	return n
}

// handlePreliminary dispatches 1xx replies that arrive during a transfer:
// 111 restart markers (returns the parsed ranges) and 112 performance
// markers (feeds the perf callback and the client metrics registry).
func (c *Client) handlePreliminary(r ftp.Reply) []Range {
	switch r.Code {
	case ftp.CodeRestartMarker:
		text := strings.TrimPrefix(r.Lines[0], "Range Marker")
		ranges, err := ParseRanges(strings.TrimSpace(text))
		if err != nil {
			return nil
		}
		return ranges
	case CodePerfMarker:
		if m, ok := ParsePerfMarker(r); ok {
			c.notePerf(m)
		}
	}
	return nil
}

// notePerf records one performance marker: latest per-stripe totals,
// marker count, metrics, and the user callback.
func (c *Client) notePerf(m PerfMarker) {
	c.perfMu.Lock()
	c.perfBytes[m.Stripe] = m.StripeBytes
	c.perfSeen++
	var total int64
	for _, b := range c.perfBytes {
		total += b
	}
	c.perfMu.Unlock()
	reg := c.obs.Registry()
	reg.Counter("gridftp.client.perf_markers").Inc()
	reg.Gauge("gridftp.client.perf_bytes").Set(total)
	reg.Gauge("gridftp.client.perf_stripes").Set(int64(m.TotalStripes))
	if c.perfCB != nil {
		c.perfCB(m)
	}
}

// resetPerf clears per-transfer performance state (called when a new
// transfer command is issued).
func (c *Client) resetPerf() {
	c.perfMu.Lock()
	c.perfBytes = make(map[int]int64)
	c.perfMu.Unlock()
}

// PerfSnapshot returns the in-flight progress reported by 112 performance
// markers for the current (or last) transfer: total bytes across stripes,
// the number of stripes reporting, and how many markers this session has
// observed in total.
func (c *Client) PerfSnapshot() (total int64, stripes, markers int) {
	c.perfMu.Lock()
	defer c.perfMu.Unlock()
	for _, b := range c.perfBytes {
		total += b
	}
	return total, len(c.perfBytes), c.perfSeen
}

// OnPerf registers a callback receiving in-flight 112 performance markers
// during transfers.
func (c *Client) OnPerf(cb func(PerfMarker)) { c.perfCB = cb }

// TransferStats reports what a transfer moved.
type TransferStats struct {
	Bytes    int64
	Duration time.Duration
	// Markers holds the last restart-marker ranges seen (PUT) or the
	// locally received ranges (GET); on failure they seed a restart.
	Markers []Range
}

// Put uploads src to the remote path (passive mode: the server listens,
// this client connects and sends — the canonical GridFTP direction).
func (c *Client) Put(path string, src dsi.File) (*TransferStats, error) {
	size, err := src.Size()
	if err != nil {
		return nil, err
	}
	restart, err := c.sendRestart()
	if err != nil {
		return nil, err
	}
	ranges := []Range{{0, size}}
	if len(restart) > 0 {
		ranges = FromRanges(restart).Missing(size)
	}

	start := time.Now()
	c.resetPerf()
	if c.spec.Mode == ModeStream {
		c.flushPools()
	}
	// PASV goes out unless pooled channels, or a passive address the server
	// still listens on, will carry the data. Deciding that before the owed
	// replies are read is safe: every owed command that changes what a channel
	// must look like (Delegate, SetParallelism, DCSC) flushes the pools and the
	// address as it is written. The owed replies, ALLO's and PASV's, then come
	// back in PASV's flight.
	passive := len(c.data.targets) == 0 && len(c.data.pooledDialed) != c.spec.Parallelism
	if !passive {
		// Nothing is read before the data leaves, so a refusal owed from
		// before the Put is read now, and stops it.
		if _, err := c.settle(); err != nil {
			return nil, err
		}
	}
	// Tell the server how big the destination will be so its storage
	// preallocates once instead of grow-copying per block.
	c.allocate(size)
	if passive {
		if err := c.ensurePassive(); err != nil {
			return nil, err
		}
	}
	if c.spec.Mode == ModeStream {
		if err := c.send("STOR", path); err != nil {
			return nil, err
		}
		chans, err := c.data.dial(1, c.channelParams())
		if err != nil {
			c.finalReply(nil)
			return nil, err
		}
		from := int64(0)
		if len(restart) == 1 && restart[0].Start == 0 {
			from = restart[0].End
		}
		sendErr := sendStream(chans[0].sec, src, from, size, c.spec.BlockSize)
		closeChannels(chans)
		var lastMarkers []Range
		r, rerr := c.finalReply(func(p ftp.Reply) {
			if ranges := c.handlePreliminary(p); ranges != nil {
				lastMarkers = ranges
			}
		})
		if sendErr != nil {
			return &TransferStats{Markers: lastMarkers}, sendErr
		}
		if rerr != nil {
			return &TransferStats{Markers: lastMarkers}, rerr
		}
		if err := r.Err(); err != nil {
			return &TransferStats{Markers: lastMarkers}, err
		}
		return &TransferStats{Bytes: size - totalLen(restart), Duration: time.Since(start), Markers: lastMarkers}, nil
	}

	if err := c.send("STOR", path); err != nil {
		return nil, err
	}
	markers, err := c.sendOne(src, ranges)
	if err != nil {
		return &TransferStats{Markers: markers}, err
	}
	return &TransferStats{Bytes: totalLen(ranges), Duration: time.Since(start), Markers: markers}, nil
}

// sendOne sends ranges of src as one MODE E transfer whose STOR is already
// in flight — over pooled channels or fresh ones — and consumes its final
// reply. It returns the last restart markers the server reported. Channels
// are retired into the pool on success; any failure drops all data state,
// since the server's failure path has done the same.
func (c *Client) sendOne(src dsi.File, ranges []Range) (markers []Range, err error) {
	chans, err := c.data.dial(c.spec.Parallelism, c.channelParams())
	if err != nil {
		// The server is waiting for a transfer that will not happen; it
		// will time out its accept and report 425/426.
		c.finalReply(nil)
		c.flushPools()
		return nil, err
	}
	sent := c.obs.Registry().Counter("gridftp.client.bytes_sent")
	conns, tracker := c.data.trackChannels(c.task, "put", chans)
	err = sendModeE(conns, src, ranges, c.spec.BlockSize, func(_ int, n int64) { sent.Add(n) })
	r, rerr := c.finalReply(func(p ftp.Reply) {
		if ranges := c.handlePreliminary(p); ranges != nil {
			markers = ranges
		}
	})
	if err == nil {
		err = rerr
	}
	if err == nil {
		err = r.Err()
	}
	tracker.Done(err)
	c.data.retire(chans, c.spec.Mode, err == nil)
	if err != nil {
		c.flushPools()
	}
	return markers, err
}

// Get downloads the remote path into dst. Active mode (default): this
// client listens and the server — the sender — connects, the canonical
// GridFTP arrangement.
func (c *Client) Get(path string, dst dsi.File) (*TransferStats, error) {
	restart, err := c.sendRestart()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	c.resetPerf()
	if err := c.activeFlight(1, func() error { return c.send("RETR", path) }); err != nil {
		return nil, err
	}

	if c.spec.Mode == ModeStream {
		chans, err := c.data.accept(1, c.channelParams())
		if err != nil {
			c.finalReply(nil)
			return nil, err
		}
		offset := int64(0)
		if len(restart) == 1 && restart[0].Start == 0 {
			offset = restart[0].End
		}
		n, recvErr := recvStream(chans[0].sec, dst, offset, c.spec.BlockSize)
		closeChannels(chans)
		r, rerr := c.finalReply(nil)
		if recvErr != nil {
			return nil, recvErr
		}
		if rerr != nil {
			return nil, rerr
		}
		if err := r.Err(); err != nil {
			return nil, err
		}
		return &TransferStats{Bytes: n, Duration: time.Since(start)}, nil
	}

	// MODE E active: pooled channels first, fresh ones off our listener.
	received := FromRanges(restart)
	res, r, rerr := c.recvWithReplies(dst, received)
	markers := res.Received.Ranges()
	switch {
	case rerr != nil:
		return &TransferStats{Markers: markers}, rerr
	case r.Err() != nil:
		// The server's error reply names the root cause; a concurrent
		// receive cancellation is just its consequence.
		return &TransferStats{Markers: markers}, r.Err()
	case res.Err != nil:
		return &TransferStats{Markers: markers}, res.Err
	}
	return &TransferStats{
		Bytes:    res.Received.Covered() - totalLen(restart),
		Duration: time.Since(start),
		Markers:  markers,
	}, nil
}

// recvWithReplies runs one MODE E receive (pooled channels first, fresh
// ones off the client listener) while concurrently reading control-channel
// replies, so a refusal (e.g. 530 before any data connection exists)
// cancels the receive instead of timing it out. It retires channels into
// the pool on success and flushes them on any failure.
func (c *Client) recvWithReplies(dst dsi.File, received *RangeSet) (recvResult, ftp.Reply, error) {
	rcv, err := c.data.beginReceive(c.channelParams(), c.task, "get")
	if err != nil {
		c.finalReply(nil)
		c.flushPools()
		return recvResult{Received: received, Err: err}, ftp.Reply{}, err
	}
	type final struct {
		r   ftp.Reply
		err error
	}
	replyCh := make(chan final, 1)
	go func() {
		r, err := c.finalReply(func(p ftp.Reply) {
			// The sender's 150 announces the transfer size; preallocating
			// the destination here spares the grow-copy per landed block.
			if n := parseOpeningSize(p); n > 0 {
				preallocate(dst, n)
			}
			c.handlePreliminary(p)
		})
		replyCh <- final{r, err}
	}()
	resCh := make(chan recvResult, 1)
	go func() {
		resCh <- recvModeE(rcv.accept, dst, received, c.spec.BlockSize, c.spec.Parallelism, nil, rcv.canceled)
	}()

	var res recvResult
	var fin final
	select {
	case res = <-resCh:
		fin = <-replyCh
	case fin = <-replyCh:
		if fin.err != nil || fin.r.Err() != nil {
			rcv.cancel()
		}
		res = <-resCh
	}
	// The server's error reply names the root cause; a concurrent receive
	// cancellation is just its consequence.
	err = fin.err
	if err == nil {
		err = fin.r.Err()
	}
	if err == nil {
		err = res.Err
	}
	rcv.finish(err)
	if err != nil {
		c.flushPools()
	}
	return res, fin.r, fin.err
}

// --- Simple file operations ---

// Size returns the remote file size.
func (c *Client) Size(path string) (int64, error) {
	r, err := c.cmdExpect("SIZE", path, ftp.CodeFileStatus)
	if err != nil {
		return 0, err
	}
	var n int64
	if _, err := fmt.Sscanf(r.Lines[0], "%d", &n); err != nil {
		return 0, fmt.Errorf("gridftp: bad SIZE reply %q", r.Lines[0])
	}
	return n, nil
}

// Mkdir creates a remote directory.
func (c *Client) Mkdir(path string) error {
	_, err := c.cmdExpect("MKD", path, ftp.CodePathCreated)
	return err
}

// Rename moves a remote file.
func (c *Client) Rename(from, to string) error {
	if _, err := c.cmdExpect("RNFR", from, ftp.CodeNeedAccount); err != nil {
		return err
	}
	_, err := c.cmdExpect("RNTO", to, ftp.CodeFileActionOK)
	return err
}

// Noop pings the server.
func (c *Client) Noop() error {
	_, err := c.cmdExpect("NOOP", "", ftp.CodeOK)
	return err
}

// Stat runs MLST and returns the facts line for one path.
func (c *Client) Stat(path string) (string, error) {
	r, err := c.cmdExpect("MLST", path, ftp.CodeFileActionOK)
	if err != nil {
		return "", err
	}
	return mlstLine(r)
}

// mlstLine is the facts line of an MLST 250.
func mlstLine(r ftp.Reply) (string, error) {
	if len(r.Lines) < 2 {
		return "", fmt.Errorf("gridftp: bad MLST reply %v", r.Lines)
	}
	return strings.TrimSpace(r.Lines[1]), nil
}

// List runs MLSD over a fresh data channel and returns the entry lines. It
// drops the session's pooled channels and un-wires a third-party pair; a walk
// lists without doing either where the server has MLSC.
func (c *Client) List(path string) ([]string, error) {
	c.flushPools()
	if err := c.ensurePassive(); err != nil {
		return nil, err
	}
	if err := c.send("MLSD", path); err != nil {
		return nil, err
	}
	chans, err := c.data.dial(1, c.channelParams())
	if err != nil {
		c.finalReply(nil)
		return nil, err
	}
	var listing []byte
	buf := make([]byte, 32*1024)
	for {
		n, rerr := chans[0].sec.Read(buf)
		listing = append(listing, buf[:n]...)
		if rerr != nil {
			break
		}
	}
	closeChannels(chans)
	r, err := c.finalReply(nil)
	if err != nil {
		return nil, err
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	var out []string
	for _, line := range strings.Split(string(listing), "\r\n") {
		if strings.TrimSpace(line) != "" {
			out = append(out, line)
		}
	}
	return out, nil
}
