package gridftp

import (
	"crypto/ecdsa"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gridftp.dev/instant/internal/authz"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/eventlog"
	"gridftp.dev/instant/internal/obs/streamstats"
	"gridftp.dev/instant/internal/usagestats"
)

// DefaultPort is the IANA-registered GridFTP control port.
const DefaultPort = 2811

// StripeNode is one data-mover node of a striped server: a host that runs
// a DTP but no protocol interpreter (§II.B).
type StripeNode struct {
	Host *netsim.Host
}

// ServerConfig configures a GridFTP server.
type ServerConfig struct {
	// HostCred is the server's host credential (control channel identity).
	HostCred *gsi.Credential
	// Trust validates control-channel clients and is the default data
	// channel trust (DCSC overlays it).
	Trust *gsi.TrustStore
	// Authz maps authenticated identities to local usernames.
	Authz authz.Callout
	// Storage is the DSI backend requests execute against.
	Storage dsi.Storage
	// Banner is the 220 greeting text.
	Banner string
	// MarkerInterval is the cadence of a MODE E transfer's markers on the
	// control channel: the restart markers of a STOR (111 replies) and the
	// performance markers of a STOR or a RETR (112 replies, one per stream).
	// Zero disables both, the closing set included; a session's
	// "OPTS RETR Markers=" overrides it.
	MarkerInterval time.Duration
	// StripeNodes, when non-empty, turns this into a striped server: the
	// PI runs on the main host, DTPs on the stripe nodes.
	StripeNodes []StripeNode
	// DisableChannelCache turns off cross-transfer data channel reuse
	// (used by the ablation benchmark).
	DisableChannelCache bool
	// DisableTrace removes the TRACE feature: FEAT stops advertising it
	// and SITE TRACE is rejected as unknown. Used to prove clients degrade
	// gracefully against servers without distributed tracing.
	DisableTrace bool
	// DataTimeout bounds waits for data connections (default 30s).
	DataTimeout time.Duration
	// Usage, if non-nil, receives per-transfer usage reports (the
	// opt-in statistics stream behind the paper's Fig 1). Use
	// usagestats.MultiSink to feed several sinks — e.g. the fleet
	// collector plus a metrics registry — from one server.
	Usage usagestats.Sink
	// EndpointName identifies this server in usage reports.
	EndpointName string
	// Obs receives structured logs, metrics, and spans. Nil disables
	// observability (all call sites degrade to no-ops).
	Obs *obs.Obs
	// Streams, if non-nil, receives per-stream wire telemetry for every
	// MODE E transfer this server carries: cumulative bytes, EWMA
	// throughput, RTT/retransmit/cwnd wire counters, and stall-watchdog
	// supervision (the registry's Stall window decides when a silent
	// stream is declared stalled and torn down so the client can retry
	// from its restart markers).
	Streams *streamstats.Registry
}

// Server is a GridFTP server protocol interpreter plus its DTP(s).
type Server struct {
	cfg  ServerConfig
	host *netsim.Host
	log  *obs.Logger

	nextSession atomic.Int64

	mu       sync.Mutex
	closed   bool
	listener net.Listener
}

// NewServer creates a server bound to a simulated host.
func NewServer(host *netsim.Host, cfg ServerConfig) (*Server, error) {
	if cfg.HostCred == nil || cfg.Trust == nil {
		return nil, errors.New("gridftp: server requires host credential and trust store")
	}
	if cfg.Authz == nil {
		return nil, errors.New("gridftp: server requires an authorization callout")
	}
	if cfg.Storage == nil {
		return nil, errors.New("gridftp: server requires a storage backend")
	}
	if cfg.Banner == "" {
		cfg.Banner = "Instant GridFTP server ready"
	}
	// Normalize the usage sink: a typed nil (nil *Collector in the
	// interface) must not survive past this point, or every transfer's
	// report call would panic the session.
	cfg.Usage = usagestats.MultiSink(cfg.Usage)
	logger := cfg.Obs.Logger().With("component", "gridftp-server")
	if cfg.EndpointName != "" {
		logger = logger.With("endpoint", cfg.EndpointName)
	}
	return &Server{cfg: cfg, host: host, log: logger}, nil
}

// Host returns the simulated host the server runs on.
func (s *Server) Host() *netsim.Host { return s.host }

// ListenAndServe starts accepting control connections on the given port
// (0 picks one) and returns the listener address immediately; sessions are
// served on background goroutines.
func (s *Server) ListenAndServe(port int) (net.Addr, error) {
	l, err := s.host.Listen(port)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.listener = l
	s.mu.Unlock()
	go s.serveLoop(l)
	return l.Addr(), nil
}

// Close stops the control listener.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.listener != nil {
		return s.listener.Close()
	}
	return nil
}

func (s *Server) serveLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		go s.serveSession(conn)
	}
}

// session is the per-control-connection state machine.
type session struct {
	srv  *Server
	ctrl *ftp.Conn
	// id is this session's server-unique identifier; log carries it (and,
	// after authentication, the remote DN) on every line.
	id  int64
	log *obs.Logger

	// replyMu serializes control-channel writes (a transfer's marker
	// goroutine writes 1xx replies concurrently with the command loop).
	replyMu sync.Mutex

	authenticated bool
	identity      *gsi.VerifiedIdentity
	localUser     string

	// delegKey is the session's delegation key pair, generated when the
	// login is authorized; its public half travels in the 230 and every DELG
	// of the session is a proxy signed over it. Nil on a Lite session.
	delegKey *ecdsa.PrivateKey
	// delegated is the user proxy delegated over the control channel;
	// it is the default data channel credential.
	delegated *gsi.Credential
	// dcsc is the security context installed by DCSC P (nil = default).
	dcsc *SecurityContext

	spec    ChannelSpec
	restart []Range
	cwd     string

	// alloHint is the size announced by ALLO for the next STOR; the
	// storage layer preallocates from it instead of grow-copying per
	// block (the top allocator in the E2 profile). Consumed by one STOR.
	alloHint int64

	// task is the caller-supplied task label installed by SITE TASK; the
	// stream-telemetry plane uses it to name this session's per-stream
	// series, so both ends of a third-party transfer (and the scheduler
	// that drives them) aggregate under one task identity.
	task string

	renameFrom string

	// lite marks a GridFTP-Lite session (SSH-tunneled control channel,
	// §III.B): no data channel security, no delegation, no striping.
	lite bool

	// traceCtx is the remote trace context installed by SITE TRACE; while
	// zero (no/invalid context), transfer spans root locally instead.
	traceCtx obs.SpanContext
	// cmdSpan covers the transfer command currently dispatching, so
	// handlers deeper in the call chain can annotate it. Only the command
	// loop goroutine touches it.
	cmdSpan *obs.Span
	// lastReplyCode is the most recent final (>= 200) reply code, used to
	// classify command latency as ok|err. Written under replyMu by the
	// command loop (marker goroutines only send 1xx replies) and read by
	// the command loop.
	lastReplyCode int

	data dataPath
}

func (s *Server) serveSession(conn net.Conn) {
	id := s.nextSession.Add(1)
	sess := &session{
		srv:  s,
		ctrl: ftp.NewConn(conn),
		id:   id,
		log:  s.log.With("session", id, "remote", conn.RemoteAddr().String()),
		spec: ChannelSpec{}.Normalize(),
		cwd:  "/",
		data: s.newDataPath(),
	}
	reg := s.cfg.Obs.Registry()
	ev := s.cfg.Obs.EventLog()
	reg.Counter("gridftp.server.sessions_total").Inc()
	reg.Gauge("gridftp.server.sessions_active").Add(1)
	sess.log.Info("session open")
	ev.Append(eventlog.SessionOpen, "component", "gridftp-server",
		"session", id, "remote", conn.RemoteAddr().String())
	start := time.Now()
	defer func() {
		// The panic handler runs before close so a crashed session still
		// tears down its data state and is logged with full context
		// (session id, remote address, and — when authenticated — DN).
		if r := recover(); r != nil {
			reg.Counter("gridftp.server.session_panics").Inc()
			sess.log.Error("session panic", "panic", fmt.Sprint(r))
		}
		sess.close()
		reg.Gauge("gridftp.server.sessions_active").Add(-1)
		sess.log.Info("session close", "dur", time.Since(start).Round(time.Microsecond))
		ev.Append(eventlog.SessionClose, "component", "gridftp-server",
			"session", id, "dur", time.Since(start).Round(time.Microsecond).String())
	}()
	sess.reply(ftp.CodeReadyForNewUser, s.cfg.Banner)
	sess.loop()
}

func (sess *session) close() {
	sess.data.reset()
	sess.ctrl.Close()
}

// reply writes one reply. The error matters to the one handler whose reply
// grows with what it found (MLSC, see ftp.ErrReplyTooLarge); everyone else
// learns of a dead control channel from the next read.
func (sess *session) reply(code int, lines ...string) error {
	return sess.replies(ftp.Reply{Code: code, Lines: lines})
}

// replies writes a flight of replies — a tick's markers, or a transfer's
// closing markers and its completion reply — in order and as one write
// (ftp.Conn.WriteReplies). It and reply are the session's only writers, and
// neither leaves anything unwritten behind it: what the network charges for a
// write it charges per write, so the count of them is what the server owns.
func (sess *session) replies(flight ...ftp.Reply) error {
	if len(flight) == 0 {
		return nil
	}
	sess.replyMu.Lock()
	defer sess.replyMu.Unlock()
	for _, r := range flight {
		if r.Code >= 200 {
			sess.lastReplyCode = r.Code
		}
	}
	err := sess.ctrl.WriteReplies(flight...)
	if err != nil {
		sess.log.Warn("reply write failed", "err", err)
	}
	return err
}

func (sess *session) loop() {
	// The per-command latency histogram is the direct view on the control
	// channel RTT cost that dominates lots-of-small-files workloads: each
	// file costs a handful of commands, so command latency times command
	// count is the protocol overhead pipelining exists to hide. The
	// unlabeled series is the aggregate; the outcome-labeled pair splits
	// failed-command latency from successes.
	reg := sess.srv.cfg.Obs.Registry()
	cmdHist := reg.Histogram("gridftp.server.command_seconds", obs.DefaultDurationBuckets)
	cmdOK := reg.Histogram(obs.Name("gridftp.server.command_seconds", "outcome=ok"), obs.DefaultDurationBuckets)
	cmdErr := reg.Histogram(obs.Name("gridftp.server.command_seconds", "outcome=err"), obs.DefaultDurationBuckets)
	for {
		cmd, err := sess.ctrl.ReadCommand()
		if err != nil {
			return
		}
		sess.log.Debug("command", "cmd", cmd.Name, "params", cmd.Params)
		start := time.Now()
		sess.beginCommandSpan(cmd)
		quit := sess.dispatch(cmd)
		sess.endCommandSpan()
		dur := time.Since(start).Seconds()
		cmdHist.Observe(dur)
		if sess.lastReplyCode >= 400 {
			cmdErr.Observe(dur)
		} else {
			cmdOK.Observe(dur)
		}
		if quit {
			return
		}
	}
}

// tracedCommand reports whether a command gets its own span: the transfer
// verbs, whose server-side timing is what multi-process timelines need.
func tracedCommand(name string) bool {
	switch name {
	case "RETR", "STOR", "ERET":
		return true
	}
	return false
}

// beginCommandSpan starts the span covering one transfer command, bound
// to the session's SITE TRACE context when one is installed (a zero
// context makes StartSpanContext root the span locally).
func (sess *session) beginCommandSpan(cmd ftp.Command) {
	if !tracedCommand(cmd.Name) {
		return
	}
	span := sess.srv.cfg.Obs.Tracer().
		StartSpanContext("gridftp."+strings.ToLower(cmd.Name), sess.traceCtx)
	span.SetAttr("session", sess.id)
	if sess.srv.cfg.EndpointName != "" {
		span.SetAttr("endpoint", sess.srv.cfg.EndpointName)
	}
	sess.cmdSpan = span
}

func (sess *session) endCommandSpan() {
	if sess.cmdSpan == nil {
		return
	}
	sess.cmdSpan.SetAttr("reply", sess.lastReplyCode)
	if sess.lastReplyCode >= 400 {
		sess.cmdSpan.SetError(fmt.Errorf("reply %d", sess.lastReplyCode))
	}
	sess.cmdSpan.End()
	sess.cmdSpan = nil
}

// handleAuth performs the RFC 2228 security exchange: AUTH TLS upgrades
// the control channel to mutually authenticated TLS, then the
// authorization callout determines the local user (§II.C). The handshake
// reads through the control channel's line buffer (ftp.Conn.RW): this tree's
// client sends its ClientHello in one flight with AUTH TLS, one that waits
// for the 234 sends it a round trip later, and either way whatever arrived
// behind the AUTH line is handshake input — a plaintext command injected
// there fails the handshake and is never dispatched.
func (sess *session) handleAuth(params string) bool {
	if params != "TLS" && params != "GSSAPI" {
		sess.reply(ftp.CodeParamNotImpl, "Only AUTH TLS/GSSAPI supported")
		return false
	}
	if sess.authenticated {
		sess.reply(ftp.CodeBadSequence, "Already authenticated")
		return false
	}
	sess.reply(ftp.CodeAuthOK, "Proceed with security exchange")
	raw := sess.ctrl.RW()
	tc := tls.Server(raw, gsi.ServerTLSConfig(sess.srv.cfg.HostCred, sess.srv.cfg.Trust))
	raw.SetDeadline(time.Now().Add(30 * time.Second))
	ev := sess.srv.cfg.Obs.EventLog()
	if err := tc.Handshake(); err != nil {
		sess.log.Warn("control handshake failed", "err", err)
		ev.Append(eventlog.AuthFailure, "component", "gridftp-server",
			"session", sess.id, "stage", "handshake", "err", err.Error())
		return true // connection is unusable; drop the session
	}
	raw.SetDeadline(time.Time{})
	id, err := gsi.PeerIdentity(tc, sess.srv.cfg.Trust)
	if err != nil {
		sess.log.Warn("control peer verification failed", "err", err)
		ev.Append(eventlog.AuthFailure, "component", "gridftp-server",
			"session", sess.id, "stage", "verify", "err", err.Error())
		return true
	}
	sess.ctrl.Upgrade(tc)
	// Authorization callout: identity -> local user ("setuid").
	user, err := sess.srv.cfg.Authz.Map(id)
	if err != nil {
		sess.srv.cfg.Obs.Registry().Counter("gridftp.server.authz_denied").Inc()
		sess.log.Warn("authorization failed", "dn", string(id.Identity), "err", err)
		ev.Append(eventlog.AuthFailure, "component", "gridftp-server",
			"session", sess.id, "stage", "authz", "dn", string(id.Identity), "err", err.Error())
		sess.reply(ftp.CodeNotLoggedIn, fmt.Sprintf("Authorization failed: %v", err))
		return true
	}
	sess.authenticated = true
	sess.identity = id
	sess.localUser = user
	sess.log = sess.log.With("dn", string(id.Identity), "user", user)
	sess.log.Info("session authenticated")
	ev.Append(eventlog.AuthSuccess, "component", "gridftp-server",
		"session", sess.id, "dn", string(id.Identity), "user", user)
	// The delegation key rides the login reply: the client signs its proxy
	// over it without asking for it, so DELG costs no round trip of its own.
	// The key pair is the session's, not the delegation's — it never leaves
	// this process and dies with the session, so a later DELG renews the
	// certificate over the same key and loses nothing a fresh key would keep.
	lines := []string{fmt.Sprintf("User %s logged in as local user %s", id.Identity, user)}
	if key, pubDER, err := gsi.NewDelegationKey(); err != nil {
		sess.log.Warn("no delegation key", "err", err) // DELG will be refused
	} else {
		sess.delegKey = key
		lines = append(lines, delegKeyPrefix+base64.StdEncoding.EncodeToString(pubDER))
	}
	sess.reply(ftp.CodeUserLoggedIn, lines...)
	return false
}

// delegKeyPrefix starts the line of the 230 that carries the session's
// delegation public key, base64 of its PKIX DER.
const delegKeyPrefix = "DELGKEY "

// handleDelegation takes "DELG <base64 PEM bundle>": a proxy of the login's
// credential signed over the session's delegation key (the one the 230
// carried), with its chain. Installed, it is the default data channel
// credential — so nothing is installed that the server has not checked the
// way it checks a peer: the leaf certifies the session's own key, and the
// bundle verifies in the server's trust store to the identity that logged in.
// A refusal changes nothing: the credential and the pooled channels stay.
func (sess *session) handleDelegation(params string) {
	if params == "" || sess.delegKey == nil {
		sess.reply(ftp.CodeParamSyntaxError, "DELG takes a proxy signed over the login reply's DELGKEY")
		return
	}
	bundle, err := base64.StdEncoding.DecodeString(params)
	if err != nil {
		sess.reply(ftp.CodeParamSyntaxError, "Delegation bundle is not base64")
		return
	}
	cred, err := gsi.AcceptBundle(sess.delegKey, bundle)
	if err != nil {
		sess.reply(ftp.CodeParamSyntaxError, fmt.Sprintf("Delegation failed: %s", errText(err)))
		return
	}
	id, err := sess.srv.cfg.Trust.Verify(cred.FullChain(), time.Now())
	if err != nil {
		sess.reply(ftp.CodeNotLoggedIn, fmt.Sprintf("Delegated credential rejected: %s", errText(err)))
		return
	}
	if id.Identity != sess.identity.Identity {
		sess.reply(ftp.CodeNotLoggedIn, "Delegated credential identity mismatch")
		return
	}
	sess.delegated = cred
	sess.data.flush() // security context changed
	sess.reply(ftp.CodeOK, "Delegation complete")
}

// dataContext resolves the active data channel security context.
func (sess *session) dataContext() *SecurityContext {
	if sess.dcsc != nil {
		return sess.dcsc
	}
	if sess.delegated == nil {
		return nil
	}
	return &SecurityContext{
		Cred:           sess.delegated,
		Trust:          sess.srv.cfg.Trust,
		ExpectIdentity: sess.delegated.Identity(),
	}
}
