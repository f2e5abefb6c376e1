package gsi

import (
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// TLSCertificate converts the credential into a crypto/tls certificate
// (leaf first, then the chain, as TLS requires). A trailing self-signed CA is
// left out: it is a trust anchor, which a sender may omit (RFC 8446 §4.4.2),
// and verifyChain anchors at the store's root, found by issuer DN, never at a
// presented one. A self-signed end-entity (a DCSC context) is not a CA, and
// is sent.
func (c *Credential) TLSCertificate() tls.Certificate {
	chain := c.Chain
	if n := len(chain); n > 0 && chain[n-1].IsCA && CertDN(chain[n-1]) == IssuerDN(chain[n-1]) {
		chain = chain[:n-1]
	}
	raw := make([][]byte, 0, len(chain)+1)
	raw = append(raw, c.Cert.Raw)
	for _, cc := range chain {
		raw = append(raw, cc.Raw)
	}
	return tls.Certificate{
		Certificate: raw,
		PrivateKey:  c.Key,
		Leaf:        c.Cert,
	}
}

// verifyCallback builds a VerifyPeerCertificate hook that applies GSI
// chain validation (proxy-aware, signing-policy-enforcing) in place of the
// stdlib verifier, which rejects proxy chains.
func verifyCallback(trust *TrustStore) func([][]byte, [][]*x509.Certificate) error {
	return func(rawCerts [][]byte, _ [][]*x509.Certificate) error {
		_, err := trust.VerifyRaw(rawCerts, time.Now())
		return err
	}
}

// ServerTLSConfig builds a TLS server configuration that presents cred and
// demands a client certificate verified against trust with GSI semantics.
func ServerTLSConfig(cred *Credential, trust *TrustStore) *tls.Config {
	return &tls.Config{
		Certificates:          []tls.Certificate{cred.TLSCertificate()},
		ClientAuth:            tls.RequireAnyClientCert,
		InsecureSkipVerify:    true, // GSI verification below replaces stdlib verification
		VerifyPeerCertificate: verifyCallback(trust),
		MinVersion:            tls.VersionTLS12,
		// GSI peers build a fresh config per connection, so issued session
		// tickets can never be redeemed; minting them just burns a key
		// schedule per data-channel handshake.
		SessionTicketsDisabled: true,
	}
}

// ServerTLSConfigNoClientAuth builds a TLS server configuration that
// presents cred but does not demand a client certificate — the MyProxy
// logon case, where the connecting user has no certificate yet (obtaining
// one is the point of the exchange) and authenticates with site
// credentials inside the session instead.
func ServerTLSConfigNoClientAuth(cred *Credential) *tls.Config {
	return &tls.Config{
		Certificates: []tls.Certificate{cred.TLSCertificate()},
		MinVersion:   tls.VersionTLS12,
	}
}

// ClientTLSConfig builds a TLS client configuration that presents cred
// (which may be nil for an anonymous client) and verifies the server
// against trust with GSI semantics.
func ClientTLSConfig(cred *Credential, trust *TrustStore) *tls.Config {
	cfg := &tls.Config{
		InsecureSkipVerify:    true, // GSI verification below replaces stdlib verification
		VerifyPeerCertificate: verifyCallback(trust),
		MinVersion:            tls.VersionTLS12,
	}
	if cred != nil {
		cfg.Certificates = []tls.Certificate{cred.TLSCertificate()}
	}
	return cfg
}

// PeerIdentity re-verifies the handshake's peer chain and returns the GSI
// identity; callers use it after the handshake to learn who connected.
func PeerIdentity(conn *tls.Conn, trust *TrustStore) (*VerifiedIdentity, error) {
	state := conn.ConnectionState()
	if len(state.PeerCertificates) == 0 {
		return nil, errors.New("gsi: peer presented no certificate")
	}
	return trust.Verify(state.PeerCertificates, time.Now())
}

// HandshakeServer wraps conn in a server-side TLS session using cred/trust
// and returns the connection plus the verified client identity.
func HandshakeServer(conn net.Conn, cred *Credential, trust *TrustStore) (*tls.Conn, *VerifiedIdentity, error) {
	tc := tls.Server(conn, ServerTLSConfig(cred, trust))
	if err := tc.Handshake(); err != nil {
		return nil, nil, fmt.Errorf("gsi: server handshake: %w", err)
	}
	id, err := PeerIdentity(tc, trust)
	if err != nil {
		tc.Close()
		return nil, nil, err
	}
	return tc, id, nil
}

// HandshakeClient wraps conn in a client-side TLS session using cred/trust
// and returns the connection plus the verified server identity.
func HandshakeClient(conn net.Conn, cred *Credential, trust *TrustStore) (*tls.Conn, *VerifiedIdentity, error) {
	tc := tls.Client(conn, ClientTLSConfig(cred, trust))
	if err := tc.Handshake(); err != nil {
		return nil, nil, fmt.Errorf("gsi: client handshake: %w", err)
	}
	id, err := PeerIdentity(tc, trust)
	if err != nil {
		tc.Close()
		return nil, nil, err
	}
	return tc, id, nil
}

// The bounds of ServeHTTPS: the time a client has for its TLS handshake and
// request headers, the time an idle connection is kept, and the largest
// request body read (a JSON request is a few hundred bytes).
const (
	httpsHeaderTimeout = 5 * time.Second
	httpsIdleTimeout   = time.Minute
	httpsMaxBody       = 4 << 10
)

// ServeHTTPS serves h over TLS on l, presenting cred, and returns the server
// for Close. A request's body is read before h sees it, and one over
// httpsMaxBody is answered 413 instead.
func ServeHTTPS(l net.Listener, cred *Credential, h http.Handler) *http.Server {
	srv := &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, httpsMaxBody))
			if err != nil {
				code := http.StatusBadRequest
				if _, tooBig := err.(*http.MaxBytesError); tooBig {
					code = http.StatusRequestEntityTooLarge
				}
				http.Error(w, http.StatusText(code), code)
				return
			}
			r.Body = io.NopCloser(bytes.NewReader(body))
			h.ServeHTTP(w, r)
		}),
		TLSConfig:         &tls.Config{Certificates: []tls.Certificate{cred.TLSCertificate()}, MinVersion: tls.VersionTLS12},
		ReadHeaderTimeout: httpsHeaderTimeout,
		IdleTimeout:       httpsIdleTimeout,
	}
	go srv.ServeTLS(l, "", "")
	return srv
}
