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
//	C: PUBKEY <base64 PKIX DER>   (in one flight with LOGON)
//	S: PROMPT <0|1> <text>        (repeated; 0 = secret prompt)
//	C: RESPONSE <text>
//	S: CERT <base64 PEM bundle>   (certificate + chain, no key)  |  S: ERR <message>
//
// The public key is no secret and does not depend on anything the server
// says, so it rides the request instead of waiting for the conversation's
// outcome: the server parses it before the first prompt, signs nothing over
// it until authentication has succeeded, and answers the last RESPONSE with
// the certificate or the refusal — a logon costs the TLS handshake, one round
// trip per prompt, and nothing else. ERR is terminal wherever it appears.
package myproxy

import (
	"bufio"
	"crypto/tls"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"gridftp.dev/instant/internal/ca"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/eventlog"
	"gridftp.dev/instant/internal/pam"
)

// DefaultPort is the registered MyProxy port.
const DefaultPort = 7512

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
	raw.SetDeadline(time.Now().Add(time.Minute))
	if err := tc.Handshake(); err != nil {
		reg.Counter("myproxy.handshake_failures").Inc()
		log.Warn("handshake failed", "err", err)
		return
	}
	raw.SetDeadline(time.Time{})
	br := bufio.NewReader(tc)

	line, err := readLine(br)
	if err != nil {
		return
	}
	fields := strings.Fields(line)
	if (len(fields) != 3 && len(fields) != 4) || fields[0] != "LOGON" {
		fmt.Fprintf(tc, "ERR expected LOGON <user> <lifetime>\n")
		return
	}
	username := fields[1]
	seconds, err := strconv.Atoi(fields[2])
	if err != nil || seconds < 0 {
		fmt.Fprintf(tc, "ERR bad lifetime\n")
		return
	}
	// The optional fourth field carries the caller's traceparent. It is
	// best-effort telemetry: a malformed value degrades to a fresh local
	// trace rather than failing the logon.
	var sc obs.SpanContext
	if len(fields) == 4 {
		sc, _ = obs.Extract(fields[3])
	}
	// The key arrived behind LOGON. It is parsed before the conversation, so
	// a request that could never be served costs the user no prompt, and used
	// only once the conversation has succeeded.
	line, err = readLine(br)
	if err != nil {
		return
	}
	keyB64, ok := strings.CutPrefix(line, "PUBKEY ")
	if !ok {
		fmt.Fprintf(tc, "ERR expected PUBKEY\n")
		return
	}
	keyDER, err := base64.StdEncoding.DecodeString(keyB64)
	if err != nil {
		fmt.Fprintf(tc, "ERR bad key encoding\n")
		return
	}
	pub, err := x509.ParsePKIXPublicKey(keyDER)
	if err != nil {
		fmt.Fprintf(tc, "ERR unparsable public key\n")
		return
	}

	span := s.Obs.Tracer().StartSpanContext("myproxy.logon", sc)
	span.SetAttr("user", username)
	defer span.End()

	// Tunnel the PAM conversation to the client.
	conv := func(prompt string, echo bool) (string, error) {
		e := "0"
		if echo {
			e = "1"
		}
		if _, err := fmt.Fprintf(tc, "PROMPT %s %s\n", e, strings.ReplaceAll(prompt, "\n", " ")); err != nil {
			return "", err
		}
		reply, err := readLine(br)
		if err != nil {
			return "", err
		}
		resp, ok := strings.CutPrefix(reply, "RESPONSE ")
		if !ok {
			return "", fmt.Errorf("myproxy: expected RESPONSE, got %q", reply)
		}
		return resp, nil
	}

	// Authenticate, then issue: a two-phase logon through the online CA, so
	// nothing is signed for a user who has not answered every prompt.
	acct, err := s.OnlineCA.Auth.Authenticate(username, conv)
	if err != nil {
		reg.Counter("myproxy.logons_denied").Inc()
		span.SetError(err)
		log.Warn("logon denied", "user", username, "err", err)
		s.Obs.EventLog().Append(eventlog.AuthFailure,
			traceEventKV(span, "component", "myproxy", "user", username, "err", err.Error())...)
		fmt.Fprintf(tc, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		return
	}
	cred, err := s.OnlineCA.IssuePreauthed(acct.Name, pub, time.Duration(seconds)*time.Second)
	if err != nil {
		reg.Counter("myproxy.issue_failures").Inc()
		span.SetError(err)
		log.Warn("issue failed", "user", username, "err", err)
		fmt.Fprintf(tc, "ERR %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
		return
	}
	bundle, err := cred.EncodePEM()
	if err != nil {
		fmt.Fprintf(tc, "ERR encoding failure\n")
		return
	}
	fmt.Fprintf(tc, "CERT %s\n", base64.StdEncoding.EncodeToString(bundle))
	reg.Counter("myproxy.logons_total").Inc()
	reg.Histogram("myproxy.logon_seconds", obs.DefaultDurationBuckets).
		Observe(time.Since(start).Seconds())
	log.Info("logon issued", "user", username,
		"dn", string(cred.Identity()), "dur", time.Since(start).Round(time.Microsecond))
	s.Obs.EventLog().Append(eventlog.AuthSuccess,
		traceEventKV(span, "component", "myproxy", "user", username, "dn", string(cred.Identity()))...)
}

// traceEventKV appends the span's trace/span ids (when tracing is active)
// so MyProxy events cross-reference with the distributed trace.
func traceEventKV(span *obs.Span, kv ...any) []any {
	if span != nil {
		kv = append(kv, "trace", span.TraceID.String(), "span", span.SpanID.String())
	}
	return kv
}

func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimRight(line, "\r\n"), nil
}

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
// whose private key was generated locally.
func Logon(host *netsim.Host, addr, username string, conv pam.Conversation, opts LogonOptions) (*gsi.Credential, error) {
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
	raw.SetDeadline(time.Now().Add(time.Minute))
	if err := tc.Handshake(); err != nil {
		return nil, fmt.Errorf("myproxy: handshake: %w", err)
	}
	raw.SetDeadline(time.Time{})
	br := bufio.NewReader(tc)

	key, pubDER, err := gsi.NewDelegationKey()
	if err != nil {
		return nil, err
	}
	req := fmt.Sprintf("LOGON %s %d", username, int(opts.Lifetime/time.Second))
	if opts.Trace.Valid() {
		req += " " + obs.Inject(opts.Trace)
	}
	// One write: the request and the key are one flight, and one TLS record.
	if _, err := fmt.Fprintf(tc, "%s\nPUBKEY %s\n", req, base64.StdEncoding.EncodeToString(pubDER)); err != nil {
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
