package gsi

import (
	"crypto/tls"
	"crypto/x509"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/netsim"
)

// handshakePair establishes a mutually authenticated TLS session between a
// simulated client and server and returns both verified identities.
func handshakePair(t *testing.T, clientCred, serverCred *Credential, clientTrust, serverTrust *TrustStore) (*VerifiedIdentity, *VerifiedIdentity, error) {
	t.Helper()
	nw := netsim.NewNetwork()
	l, err := nw.Listen("server", 2811)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type result struct {
		id  *VerifiedIdentity
		err error
	}
	srvCh := make(chan result, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			srvCh <- result{nil, err}
			return
		}
		tc, id, err := HandshakeServer(c, serverCred, serverTrust)
		if err == nil {
			// Complete one byte of application data so the client-side
			// handshake (which may finish lazily) is fully driven.
			buf := make([]byte, 1)
			tc.Read(buf)
			tc.Write([]byte{'y'})
			tc.Close()
		}
		srvCh <- result{id, err}
	}()

	conn, err := nw.Dial("client", "server:2811")
	if err != nil {
		t.Fatal(err)
	}
	tc, srvID, err := HandshakeClient(conn, clientCred, clientTrust)
	if err != nil {
		conn.Close()
		res := <-srvCh
		_ = res
		return nil, nil, err
	}
	tc.Write([]byte{'x'})
	buf := make([]byte, 1)
	tc.SetReadDeadline(time.Now().Add(5 * time.Second))
	tc.Read(buf)
	tc.Close()
	res := <-srvCh
	if res.err != nil {
		return nil, nil, res.err
	}
	return res.id, srvID, nil
}

func testSite(t *testing.T, caDN DN) (*CA, *Credential, *Credential) {
	t.Helper()
	ca := mustCA(t, caDN)
	host := mustIssue(t, ca, IssueOptions{Subject: caDN.StripLastCN().AppendCN("host-gridftp"), Host: true})
	user := mustIssue(t, ca, IssueOptions{Subject: caDN.StripLastCN().AppendCN("alice")})
	return ca, host, user
}

func TestTLSMutualAuthWithProxy(t *testing.T) {
	ca, host, user := testSite(t, "/O=Grid/CN=CA-A")
	proxy, err := NewProxy(user, ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trust := NewTrustStore()
	trust.AddCA(ca.Certificate())

	clientID, serverID, err := handshakePair(t, proxy, host, trust, trust)
	if err != nil {
		t.Fatal(err)
	}
	if clientID.Identity != "/O=Grid/CN=alice" {
		t.Fatalf("server saw client identity %q", clientID.Identity)
	}
	if clientID.ProxyDepth != 1 {
		t.Fatalf("server saw proxy depth %d", clientID.ProxyDepth)
	}
	if serverID.Identity != "/O=Grid/CN=host-gridftp" {
		t.Fatalf("client saw server identity %q", serverID.Identity)
	}
}

// TestTrustAnchorIsNotSent: the chain a credential presents leaves out a
// trailing self-signed CA, and no verification outcome depends on it — each
// case verifies the same, identity and all, with the anchor and without it.
func TestTrustAnchorIsNotSent(t *testing.T) {
	caA, _, userA := testSite(t, "/O=Grid/CN=CA-A")
	_, _, userB := testSite(t, "/O=Grid/CN=CA-B")
	proxyA, err := NewProxy(userA, ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	proxyB, err := NewProxy(userB, ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dcsc, err := SelfSignedCredential("/CN=dcsc-random", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	trustA := NewTrustStore()
	trustA.AddCA(caA.Certificate())
	direct := trustA.Clone()
	direct.AddDirect(dcsc.Cert)
	overlay := trustA.Clone() // what DecodeDCSCBlob builds for a CA-B context
	overlay.AddCA(userB.Chain[len(userB.Chain)-1])

	for _, tc := range []struct {
		name   string
		cred   *Credential
		trust  *TrustStore
		accept bool
	}{
		{"trusted CA", proxyA, trustA, true},
		{"untrusted CA", proxyB, trustA, false},
		{"DCSC self-signed end-entity", dcsc, direct, true},
		{"cross-CA DCSC overlay", proxyB, overlay, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			presented := tc.cred.TLSCertificate().Certificate
			for _, raw := range presented {
				cert, err := x509.ParseCertificate(raw)
				if err != nil {
					t.Fatal(err)
				}
				if cert.IsCA && CertDN(cert) == IssuerDN(cert) {
					t.Errorf("the presented chain holds the self-signed CA %q", CertDN(cert))
				}
			}
			if want := len(tc.cred.FullChain()) - 1; tc.cred.Chain != nil && len(presented) != want {
				t.Errorf("%d certificates presented, want %d: all but the anchor", len(presented), want)
			}
			full := make([][]byte, 0, len(tc.cred.FullChain()))
			for _, cert := range tc.cred.FullChain() {
				full = append(full, cert.Raw)
			}
			withAnchor, errWith := tc.trust.VerifyRaw(full, time.Now())
			without, errWithout := tc.trust.VerifyRaw(presented, time.Now())
			if (errWith == nil) != tc.accept || (errWithout == nil) != tc.accept {
				t.Fatalf("with the anchor: %v; without: %v; want accepted=%v both times", errWith, errWithout, tc.accept)
			}
			if tc.accept && (withAnchor.Identity != without.Identity || withAnchor.IssuerCA != without.IssuerCA) {
				t.Errorf("with the anchor %+v, without %+v", withAnchor, without)
			}
		})
	}
}

func TestTLSRejectsCrossCA(t *testing.T) {
	caA, hostA, _ := testSite(t, "/O=Grid/CN=CA-A")
	_, _, userB := testSite(t, "/O=Grid/CN=CA-B")
	proxyB, err := NewProxy(userB, ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Server trusts only CA-A; client presents a CA-B proxy.
	serverTrust := NewTrustStore()
	serverTrust.AddCA(caA.Certificate())
	clientTrust := serverTrust.Clone()
	if _, _, err := handshakePair(t, proxyB, hostA, clientTrust, serverTrust); err == nil {
		t.Fatal("handshake with untrusted client CA should fail")
	}
}

func TestTLSRejectsClientWithoutCert(t *testing.T) {
	ca, host, _ := testSite(t, "/O=Grid/CN=CA-A")
	trust := NewTrustStore()
	trust.AddCA(ca.Certificate())
	if _, _, err := handshakePair(t, nil, host, trust, trust); err == nil {
		t.Fatal("anonymous client should be rejected (control channel auth is obligatory)")
	}
}

func TestDelegationOverConn(t *testing.T) {
	ca, _, user := testSite(t, "/O=Grid/CN=CA-A")
	proxy, err := NewProxy(user, ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	nw := netsim.NewNetwork()
	l, _ := nw.Listen("s", 1)
	defer l.Close()

	type res struct {
		cred *Credential
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			ch <- res{nil, err}
			return
		}
		defer c.Close()
		cred, err := AcceptDelegation(c)
		ch <- res{cred, err}
	}()
	c, err := nw.Dial("c", "s:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := Delegate(c, proxy, time.Hour); err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.cred.Key == nil {
		t.Fatal("delegated credential missing locally generated key")
	}
	if r.cred.Identity() != "/O=Grid/CN=alice" {
		t.Fatalf("delegated identity %q", r.cred.Identity())
	}
	if ProxyDepth(r.cred.Cert) != 2 {
		t.Fatalf("delegated proxy depth %d, want 2", ProxyDepth(r.cred.Cert))
	}
	// Delegated credential verifies against the CA.
	trust := NewTrustStore()
	trust.AddCA(ca.Certificate())
	if _, err := trust.Verify(r.cred.FullChain(), time.Now()); err != nil {
		t.Fatal(err)
	}
	// And the delegated credential can itself authenticate a TLS session.
	host := mustIssue(t, ca, IssueOptions{Subject: "/O=Grid/CN=host-x", Host: true})
	if _, _, err := handshakePair(t, r.cred, host, trust, trust); err != nil {
		t.Fatal(err)
	}
}

func TestDelegationDoesNotOverread(t *testing.T) {
	// Data written immediately after the delegation exchange must be
	// readable by both sides (no buffering swallowed it).
	_, _, user := testSite(t, "/O=Grid/CN=CA-A")
	proxy, _ := NewProxy(user, ProxyOptions{})
	nw := netsim.NewNetwork()
	l, _ := nw.Listen("s", 1)
	defer l.Close()
	ch := make(chan error, 1)
	go func() {
		c, _ := l.Accept()
		defer c.Close()
		if _, err := AcceptDelegation(c); err != nil {
			ch <- err
			return
		}
		buf := make([]byte, 5)
		if _, err := readFull(c, buf); err != nil {
			ch <- err
			return
		}
		if string(buf) != "after" {
			ch <- &net.OpError{Op: "check"}
			return
		}
		ch <- nil
	}()
	c, _ := nw.Dial("c", "s:1")
	defer c.Close()
	if err := Delegate(c, proxy, time.Hour); err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("after"))
	if err := <-ch; err != nil {
		t.Fatalf("post-delegation data corrupted: %v", err)
	}
}

func readFull(c net.Conn, buf []byte) (int, error) {
	n := 0
	for n < len(buf) {
		m, err := c.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestServeHTTPSCutsOffATrickle: a client that sends its request headers a
// byte at a time is hung up on once httpsHeaderTimeout has passed.
func TestServeHTTPSCutsOffATrickle(t *testing.T) {
	nw := netsim.NewNetwork()
	l, err := nw.Listen("server", 443)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := SelfSignedCredential("/CN=https", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeHTTPS(l, cred, http.NotFoundHandler())
	defer srv.Close()
	conn, err := nw.Dial("client", "server:443")
	if err != nil {
		t.Fatal(err)
	}
	tc := tls.Client(conn, &tls.Config{InsecureSkipVerify: true})
	defer tc.Close()
	start := time.Now()
	closed := make(chan time.Duration, 1)
	go func() {
		io.Copy(io.Discard, tc)
		closed <- time.Since(start)
	}()
	req := "GET / HTTP/1.1\r\nHost: server\r\nX-Pad: " + strings.Repeat("a", 64)
	for i := 0; ; i++ {
		select {
		case d := <-closed:
			if d < httpsHeaderTimeout-time.Second || d > httpsHeaderTimeout+2*time.Second {
				t.Fatalf("the trickling client was cut off after %v, want about %v", d, httpsHeaderTimeout)
			}
			return
		case <-time.After(100 * time.Millisecond):
		}
		if i == len(req) {
			t.Fatalf("%v of headers a byte at a time and the server still reads", time.Since(start))
		}
		tc.Write([]byte{req[i]})
	}
}
