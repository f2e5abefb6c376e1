// Package myproxy implements the MyProxy logon protocol ([20] in the
// paper): a TLS service through which a user exchanges site credentials
// (username/password, OTP, ...) for a short-lived X.509 certificate issued
// by the site's Online CA. The client generates its key pair locally and
// sends only the public key; the PAM conversation is tunneled over the
// session so challenge-response backends work end to end.
//
// Wire protocol (CRLF-free, one line per message, over TLS):
//
//	C: LOGON <username> <lifetime-seconds> [traceparent]
//	C: PASSPHRASE <text>          (optional; in one flight with LOGON)
//	C: PUBKEY <base64 PKIX DER>   (in one flight with LOGON)
//	S: PROMPT <0|1> <text>        (repeated; 0 = secret prompt)
//	C: RESPONSE <text>
//	S: CERT <base64 PEM bundle>   (certificate + chain, no key)  |  S: ERR <message>
//
// Nothing in the request depends on what the server says, so it is one
// flight behind the TLS handshake. The pass phrase rides it, as MyProxy v2's
// PASSPHRASE= does: it answers the PAM stack's first secret prompt, once, and
// every other prompt (a one-time code's, say) is tunnelled as PROMPT and
// RESPONSE. A client that sends no PASSPHRASE gets every prompt tunnelled.
// The server parses the key before the conversation, signs nothing over it
// until authentication has succeeded, and answers the last answer with the
// certificate or the refusal. So a logon against a one-password stack costs
// TCP's connect, the TLS handshake and one round trip for the request, and a
// further round trip per tunnelled prompt. ERR is terminal wherever it
// appears, and its text never carries the pass phrase.
//
// Either end reads a line through readLine, which refuses one longer than
// maxLineBytes before it has buffered more, and waits under a deadline: a
// handshake, a request and every answer within exchangeTimeout, a prompt's
// RESPONSE within promptTimeout, the time a person needs to read and type.
package myproxy

import (
	"bufio"
	"crypto/tls"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"time"

	"gridftp.dev/instant/internal/ca"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/pam"
)

// DefaultPort is the registered MyProxy port.
const DefaultPort = 7512

// maxLineBytes caps one protocol line. The longest sent is CERT's, a short
// chain of certificates in base64: 1.7 KB for a user certificate and its CA.
const maxLineBytes = 8 << 10

// The deadlines of a logon's phases (package comment); variables so that the
// tests can shorten them.
var (
	exchangeTimeout = 30 * time.Second
	promptTimeout   = 5 * time.Minute
)

// Server serves MyProxy logons for one online CA.
type Server struct {
	// OnlineCA issues the certificates.
	OnlineCA *ca.OnlineCA
	// HostCred is the server's TLS identity.
	HostCred *gsi.Credential
	// Obs receives logon logs and metrics (nil disables).
	Obs *obs.Obs

	listener net.Listener
}

// ListenAndServe starts the server on host:port (0 auto-assigns).
func (s *Server) ListenAndServe(host *netsim.Host, port int) (net.Addr, error) {
	if s.OnlineCA == nil || s.HostCred == nil {
		return nil, errors.New("myproxy: server requires an online CA and host credential")
	}
	l, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	s.listener = l
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go s.serve(conn)
		}
	}()
	return l.Addr(), nil
}

// Close stops the server.
func (s *Server) Close() error {
	if s.listener != nil {
		return s.listener.Close()
	}
	return nil
}

func (s *Server) serve(raw net.Conn) {
	defer raw.Close()
	log := s.Obs.Logger().With("component", "myproxy", "remote", raw.RemoteAddr().String())
	reg := s.Obs.Registry()
	start := time.Now()
	tc := tls.Server(raw, gsi.ServerTLSConfigNoClientAuth(s.HostCred))
	raw.SetDeadline(time.Now().Add(exchangeTimeout))
	if err := tc.Handshake(); err != nil {
		reg.Counter("myproxy.handshake_failures").Inc()
		log.Warn("handshake failed", "err", err)
		return
	}
	raw.SetDeadline(time.Now().Add(exchangeTimeout)) // the request follows in one flight
	br := bufio.NewReader(tc)
	req, err := readRequest(br)
	if err != nil {
		// A refusal's text is ERR's; a broken or overlong line gets nothing.
		var r refusal
		if errors.As(err, &r) {
			fmt.Fprintf(tc, "ERR %s\n", r.error)
		}
		return
	}

	span := s.Obs.Tracer().StartSpanContext("myproxy.logon", req.trace)
	span.SetAttr("user", req.user)
	defer span.End()

	// Tunnel the PAM conversation to the client, less the first secret
	// prompt when the request carried its answer.
	conv := func(prompt string, echo bool) (string, error) {
		if req.pass != nil && !echo {
			pass := *req.pass
			req.pass = nil
			return pass, nil
		}
		e := "0"
		if echo {
			e = "1"
		}
		raw.SetDeadline(time.Now().Add(promptTimeout))
		if _, err := fmt.Fprintf(tc, "PROMPT %s %s\n", e, strings.ReplaceAll(prompt, "\n", " ")); err != nil {
			return "", err
		}
		reply, err := readLine(br)
		if err != nil {
			return "", err
		}
		resp, ok := strings.CutPrefix(reply, "RESPONSE ")
		if !ok {
			return "", errors.New("myproxy: expected RESPONSE")
		}
		return resp, nil
	}

	// Authenticate, then issue: a two-phase logon through the online CA, so
	// nothing is signed for a user who has not answered every prompt.
	acct, err := s.OnlineCA.Auth.Authenticate(req.user, conv)
	raw.SetDeadline(time.Now().Add(exchangeTimeout)) // for the answer
	if err != nil {
		reg.Counter("myproxy.logons_denied").Inc()
		span.SetError(err)
		log.Warn("auth.failure", traceEventKV(span, "user", req.user, "err", err)...)
		fmt.Fprintf(tc, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		return
	}
	cred, err := s.OnlineCA.IssuePreauthed(acct.Name, req.pub, req.lifetime)
	if err != nil {
		reg.Counter("myproxy.issue_failures").Inc()
		span.SetError(err)
		log.Warn("issue failed", "user", req.user, "err", err)
		fmt.Fprintf(tc, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		return
	}
	bundle, err := cred.EncodePEM()
	if err != nil {
		fmt.Fprintf(tc, "ERR encoding failure\n")
		return
	}
	// The logon's records are complete before its answer leaves, as a
	// refused one's are: a client holding its certificate finds them kept.
	reg.Counter("myproxy.logons_total").Inc()
	reg.Histogram("myproxy.logon_seconds", obs.DefaultDurationBuckets).
		Observe(time.Since(start).Seconds())
	log.Info("auth.success", traceEventKV(span, "user", req.user,
		"dn", string(cred.Identity()), "dur", time.Since(start).Round(time.Microsecond))...)
	fmt.Fprintf(tc, "CERT %s\n", base64.StdEncoding.EncodeToString(bundle))
}

// traceEventKV appends the span's trace/span ids (when tracing is active)
// so MyProxy's auth records cross-reference with the distributed trace.
func traceEventKV(span *obs.Span, kv ...any) []any {
	if span != nil {
		kv = append(kv, "trace", span.TraceID.String(), "span", span.SpanID.String())
	}
	return kv
}

// request is what a client sends before the server says anything.
type request struct {
	user     string
	lifetime time.Duration
	trace    obs.SpanContext
	pass     *string // PASSPHRASE's text; nil when the client waits to be prompted
	pub      any
}

// refusal wraps an error of readRequest's that the server answers with ERR
// and its text; any other error is the connection's and gets no answer.
type refusal struct{ error }

// readRequest reads the request's flight: LOGON, then PASSPHRASE if the
// client sent one, then PUBKEY. The key is parsed here, before the
// conversation, so a request that could never be served costs the user no
// prompt.
func readRequest(br *bufio.Reader) (request, error) {
	var req request
	line, err := readLine(br)
	if err != nil {
		return req, err
	}
	if req.user, req.lifetime, req.trace, err = parseLogon(line); err != nil {
		return req, refusal{err}
	}
	if line, err = readLine(br); err != nil {
		return req, err
	}
	if pass, ok := strings.CutPrefix(line, "PASSPHRASE "); ok {
		req.pass = &pass
		if line, err = readLine(br); err != nil {
			return req, err
		}
	}
	if req.pub, err = parsePubkey(line); err != nil {
		return req, refusal{err}
	}
	return req, nil
}

// parseLogon parses "LOGON <user> <lifetime-seconds> [traceparent]"; an
// error's text is what ERR says.
func parseLogon(line string) (user string, lifetime time.Duration, sc obs.SpanContext, err error) {
	fields := strings.Fields(line)
	if (len(fields) != 3 && len(fields) != 4) || fields[0] != "LOGON" {
		return "", 0, sc, errors.New("expected LOGON <user> <lifetime>")
	}
	seconds, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil || seconds < 0 || seconds > int64(math.MaxInt64/time.Second) {
		return "", 0, sc, errors.New("bad lifetime")
	}
	// The optional fourth field carries the caller's traceparent. It is
	// best-effort telemetry: a malformed value degrades to a fresh local
	// trace rather than failing the logon.
	if len(fields) == 4 {
		sc, _ = obs.Extract(fields[3])
	}
	return fields[1], time.Duration(seconds) * time.Second, sc, nil
}

// parsePubkey parses "PUBKEY <base64 PKIX DER>"; an error's text is what ERR
// says.
func parsePubkey(line string) (any, error) {
	keyB64, ok := strings.CutPrefix(line, "PUBKEY ")
	if !ok {
		return nil, errors.New("expected PUBKEY")
	}
	keyDER, err := base64.StdEncoding.DecodeString(keyB64)
	if err != nil {
		return nil, errors.New("bad key encoding")
	}
	pub, err := x509.ParsePKIXPublicKey(keyDER)
	if err != nil {
		return nil, errors.New("unparsable public key")
	}
	return pub, nil
}

// readLine reads one line, less its ending. It fails once the line has run
// past maxLineBytes, checking each buffered fragment before keeping it, so a
// peer that never sends a newline grows nothing past the cap.
func readLine(br *bufio.Reader) (string, error) {
	var line []byte
	for {
		frag, err := br.ReadSlice('\n')
		if err != nil && err != bufio.ErrBufferFull {
			return "", err
		}
		if len(line)+len(frag) > maxLineBytes {
			return "", errLineTooLong
		}
		line = append(line, frag...)
		if err == nil {
			return strings.TrimRight(string(line), "\r\n"), nil
		}
	}
}

var errLineTooLong = fmt.Errorf("line exceeds %d bytes", maxLineBytes)

// LogonOptions configure a client logon.
type LogonOptions struct {
	// Lifetime requested for the certificate (server default if zero).
	Lifetime time.Duration
	// Trust validates the MyProxy server's certificate ("-b" bootstraps
	// trust on first use when nil — see Bootstrap).
	Trust *gsi.TrustStore
	// Trace, when valid, rides on the LOGON request so the server's logon
	// span joins the caller's distributed trace.
	Trace obs.SpanContext
}

// Logon is the myproxy-logon client: it authenticates to the server with
// the PAM conversation conv and returns a fresh short-lived credential
// whose private key was generated locally. conv is asked for the pass phrase
// once, before anything is sent, and then answers whatever further prompt
// the server tunnels.
func Logon(host *netsim.Host, addr, username string, conv pam.Conversation, opts LogonOptions) (*gsi.Credential, error) {
	// The pass phrase rides the request, so it is asked for before dialling:
	// a person's typing does not run against the exchange's deadline.
	pass, err := conv("MyProxy pass phrase: ", false)
	if err != nil {
		return nil, err
	}
	if strings.ContainsAny(pass, "\r\n") {
		return nil, errors.New("myproxy: a pass phrase is one line")
	}
	raw, err := host.Dial(addr)
	if err != nil {
		return nil, fmt.Errorf("myproxy: dial %s: %w", addr, err)
	}
	defer raw.Close()

	cfg := &tls.Config{MinVersion: tls.VersionTLS12}
	if opts.Trust != nil {
		cfg = gsi.ClientTLSConfig(nil, opts.Trust)
	} else {
		// -b / bootstrap mode: accept the server's certificate on first
		// use (the GCMU client install does this, then pins the CA).
		cfg.InsecureSkipVerify = true
	}
	tc := tls.Client(raw, cfg)
	raw.SetDeadline(time.Now().Add(exchangeTimeout)) // and for the request and its first answer
	if err := tc.Handshake(); err != nil {
		return nil, fmt.Errorf("myproxy: handshake: %w", err)
	}
	br := bufio.NewReader(tc)

	key, pubDER, err := gsi.NewDelegationKey()
	if err != nil {
		return nil, err
	}
	req := fmt.Sprintf("LOGON %s %d", username, int(opts.Lifetime/time.Second))
	if opts.Trace.Valid() {
		req += " " + obs.Inject(opts.Trace)
	}
	// One write: the request, the pass phrase and the key are one flight,
	// and one TLS record, sent only to the peer the handshake verified.
	if _, err := fmt.Fprintf(tc, "%s\nPASSPHRASE %s\nPUBKEY %s\n", req, pass, base64.StdEncoding.EncodeToString(pubDER)); err != nil {
		return nil, err
	}
	for {
		line, err := readLine(br)
		if err != nil {
			return nil, fmt.Errorf("myproxy: %w", err)
		}
		kind, rest, _ := strings.Cut(line, " ")
		switch kind {
		case "PROMPT":
			echoStr, prompt, _ := strings.Cut(rest, " ")
			resp, err := conv(prompt, echoStr == "1")
			if err != nil {
				return nil, err
			}
			// conv took a person's time; the server's next answer does not.
			raw.SetDeadline(time.Now().Add(exchangeTimeout))
			if _, err := fmt.Fprintf(tc, "RESPONSE %s\n", resp); err != nil {
				return nil, err
			}
		case "CERT":
			bundle, err := base64.StdEncoding.DecodeString(rest)
			if err != nil {
				return nil, err
			}
			return gsi.AcceptBundle(key, bundle)
		case "ERR":
			return nil, fmt.Errorf("myproxy: %s", rest)
		default:
			return nil, fmt.Errorf("myproxy: unexpected server message %q", line)
		}
	}
}
