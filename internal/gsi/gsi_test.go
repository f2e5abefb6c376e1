package gsi

import (
	"crypto/x509"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mustCA(t *testing.T, dn DN) *CA {
	t.Helper()
	ca, err := NewCA(dn, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}

func mustIssue(t *testing.T, ca *CA, opts IssueOptions) *Credential {
	t.Helper()
	if opts.Lifetime == 0 {
		opts.Lifetime = time.Hour
	}
	cred, err := ca.Issue(opts)
	if err != nil {
		t.Fatal(err)
	}
	return cred
}

func TestDNRoundTrip(t *testing.T) {
	cases := []DN{
		"/C=US/O=Grid/CN=alice",
		"/O=GCMU/OU=siteA/CN=bob/CN=proxy",
		"/CN=just-a-cn",
		"/C=US/ST=IL/L=Argonne/O=ANL/OU=MCS/CN=host\\/gridftp.example.org",
	}
	for _, dn := range cases {
		attrs, err := parseDN(dn)
		if err != nil {
			t.Fatalf("%s: %v", dn, err)
		}
		if got := formatDN(attrs); got != dn {
			t.Errorf("round trip %q -> %q", dn, got)
		}
	}
}

func TestDNParseErrors(t *testing.T) {
	for _, bad := range []DN{"no-slash", "/noequals", "/=emptykey", "/X=unsupported"} {
		if _, err := parseDN(bad); err == nil {
			t.Errorf("parseDN(%q) should fail", bad)
		}
	}
}

func TestDNThroughCertificate(t *testing.T) {
	// A DN must survive the trip through actual X.509 encoding, including
	// stacked CNs for proxies.
	ca := mustCA(t, "/C=US/O=Grid/CN=Test CA")
	if got := ca.DN(); got != "/C=US/O=Grid/CN=Test CA" {
		t.Fatalf("CA DN through cert: %q", got)
	}
	user := mustIssue(t, ca, IssueOptions{Subject: "/O=Grid/OU=users/CN=alice"})
	if got := user.DN(); got != "/O=Grid/OU=users/CN=alice" {
		t.Fatalf("user DN through cert: %q", got)
	}
	proxy, err := NewProxy(user, ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := proxy.DN(); got != "/O=Grid/OU=users/CN=alice/CN=proxy" {
		t.Fatalf("proxy DN: %q", got)
	}
	if got := proxy.Identity(); got != "/O=Grid/OU=users/CN=alice" {
		t.Fatalf("proxy identity: %q", got)
	}
}

func TestCNHelpers(t *testing.T) {
	d := DN("/O=x/CN=a/CN=b")
	if got := d.LastCN(); got != "b" {
		t.Fatalf("LastCN=%q", got)
	}
	if got := d.StripLastCN(); got != "/O=x/CN=a" {
		t.Fatalf("StripLastCN=%q", got)
	}
	if got := d.AppendCN("c"); got != "/O=x/CN=a/CN=b/CN=c" {
		t.Fatalf("AppendCN=%q", got)
	}
	if got := DN("/O=x").StripLastCN(); got != "/O=x" {
		t.Fatalf("StripLastCN with no CN=%q", got)
	}
	if cns := d.CNs(); len(cns) != 2 || cns[0] != "a" || cns[1] != "b" {
		t.Fatalf("CNs=%v", cns)
	}
}

func TestDNMatches(t *testing.T) {
	d := DN("/O=Grid/OU=users/CN=alice")
	for pattern, want := range map[string]bool{
		"/O=Grid/*":                 true,
		"*":                         true,
		"/O=Grid/OU=users/CN=alice": true,
		"/O=Other/*":                false,
		"/O=Grid/OU=users/CN=bob":   false,
	} {
		if got := d.Matches(pattern); got != want {
			t.Errorf("Matches(%q)=%v want %v", pattern, got, want)
		}
	}
}

func TestPropertyAppendStripCN(t *testing.T) {
	f := func(raw string) bool {
		cn := strings.Map(func(r rune) rune {
			if r == '\n' || r == '\r' || r == 0 || r == '=' || r == '\\' {
				return 'x'
			}
			return r
		}, raw)
		if cn == "" {
			cn = "x"
		}
		base := DN("/O=Grid/CN=base")
		d := base.AppendCN(cn)
		return d.StripLastCN() == base && d.LastCN() == cn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIssueAndVerify(t *testing.T) {
	ca := mustCA(t, "/O=Grid/CN=CA-A")
	user := mustIssue(t, ca, IssueOptions{Subject: "/O=Grid/OU=siteA/CN=alice"})
	trust := NewTrustStore()
	if err := trust.AddCA(ca.Certificate()); err != nil {
		t.Fatal(err)
	}
	id, err := trust.Verify(user.FullChain(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if id.Identity != "/O=Grid/OU=siteA/CN=alice" {
		t.Fatalf("identity %q", id.Identity)
	}
	if id.IssuerCA != "/O=Grid/CN=CA-A" {
		t.Fatalf("issuer CA %q", id.IssuerCA)
	}
	if id.ProxyDepth != 0 {
		t.Fatalf("proxy depth %d", id.ProxyDepth)
	}
}

func TestVerifyRejectsUnknownCA(t *testing.T) {
	caA := mustCA(t, "/O=Grid/CN=CA-A")
	caB := mustCA(t, "/O=Grid/CN=CA-B")
	user := mustIssue(t, caA, IssueOptions{Subject: "/O=Grid/CN=alice"})
	trust := NewTrustStore()
	trust.AddCA(caB.Certificate())
	if _, err := trust.Verify(user.FullChain(), time.Now()); err == nil {
		t.Fatal("verification against wrong CA should fail")
	}
}

func TestVerifyRejectsForgedChain(t *testing.T) {
	// An attacker CA with the same DN as the trusted CA must not verify.
	real := mustCA(t, "/O=Grid/CN=CA-A")
	fake := mustCA(t, "/O=Grid/CN=CA-A")
	user := mustIssue(t, fake, IssueOptions{Subject: "/O=Grid/CN=mallory"})
	trust := NewTrustStore()
	trust.AddCA(real.Certificate())
	if _, err := trust.Verify(user.FullChain(), time.Now()); err == nil {
		t.Fatal("chain signed by DN-colliding fake CA should fail")
	}
}

func TestProxyChainVerifies(t *testing.T) {
	ca := mustCA(t, "/O=Grid/CN=CA-A")
	user := mustIssue(t, ca, IssueOptions{Subject: "/O=Grid/CN=alice"})
	proxy, err := NewProxy(user, ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Second-level proxy (proxy of a proxy), as produced by delegation.
	proxy2, err := NewProxy(proxy, ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trust := NewTrustStore()
	trust.AddCA(ca.Certificate())
	for _, cred := range []*Credential{proxy, proxy2} {
		id, err := trust.Verify(cred.FullChain(), time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if id.Identity != "/O=Grid/CN=alice" {
			t.Fatalf("identity %q", id.Identity)
		}
	}
	id, _ := trust.Verify(proxy2.FullChain(), time.Now())
	if id.ProxyDepth != 2 {
		t.Fatalf("proxy depth %d, want 2", id.ProxyDepth)
	}
}

func TestProxyChainMissingIssuerRejected(t *testing.T) {
	ca := mustCA(t, "/O=Grid/CN=CA-A")
	alice := mustIssue(t, ca, IssueOptions{Subject: "/O=Grid/CN=alice"})
	bob := mustIssue(t, ca, IssueOptions{Subject: "/O=Grid/CN=bob"})
	proxy, err := NewProxy(alice, ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trust := NewTrustStore()
	trust.AddCA(ca.Certificate())
	// Chain claims bob is the issuer of alice's proxy: no certificate with
	// the proxy's issuer DN is present, so the walk must fail.
	if _, err := trust.Verify([]*x509.Certificate{proxy.Cert, bob.Cert, ca.Certificate()}, time.Now()); err == nil {
		t.Fatal("proxy chain without its true issuer accepted")
	}
}

func TestProxySignatureForgedRejected(t *testing.T) {
	ca := mustCA(t, "/O=Grid/CN=CA-A")
	alice1 := mustIssue(t, ca, IssueOptions{Subject: "/O=Grid/CN=alice"})
	alice2 := mustIssue(t, ca, IssueOptions{Subject: "/O=Grid/CN=alice"}) // same DN, different key
	proxy, err := NewProxy(alice1, ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	trust := NewTrustStore()
	trust.AddCA(ca.Certificate())
	// Present the proxy with a same-DN cert whose key did NOT sign it.
	if _, err := trust.Verify([]*x509.Certificate{proxy.Cert, alice2.Cert, ca.Certificate()}, time.Now()); err == nil {
		t.Fatal("proxy with mismatched issuer key accepted")
	}
}

func TestProxyLifetimeClamped(t *testing.T) {
	ca := mustCA(t, "/O=Grid/CN=CA")
	user := mustIssue(t, ca, IssueOptions{Subject: "/O=Grid/CN=u", Lifetime: time.Hour})
	proxy, err := NewProxy(user, ProxyOptions{Lifetime: 100 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if proxy.Cert.NotAfter.After(user.Cert.NotAfter) {
		t.Fatal("proxy lifetime must nest within issuer lifetime")
	}
}

func TestLimitedProxy(t *testing.T) {
	ca := mustCA(t, "/O=Grid/CN=CA")
	user := mustIssue(t, ca, IssueOptions{Subject: "/O=Grid/CN=u"})
	lp, err := NewProxy(user, ProxyOptions{Limited: true})
	if err != nil {
		t.Fatal(err)
	}
	if lp.DN().LastCN() != "limited proxy" {
		t.Fatalf("limited proxy CN: %q", lp.DN())
	}
	if !IsProxy(lp.Cert) {
		t.Fatal("limited proxy should be recognized as proxy")
	}
}

func TestSigningPolicyEnforced(t *testing.T) {
	ca := mustCA(t, "/O=Grid/CN=CA-A")
	inPolicy := mustIssue(t, ca, IssueOptions{Subject: "/O=Grid/OU=siteA/CN=ok"})
	outOfPolicy := mustIssue(t, ca, IssueOptions{Subject: "/O=Evil/CN=bad"})
	trust := NewTrustStore()
	trust.AddCA(ca.Certificate())
	trust.AddPolicy(&SigningPolicy{CA: ca.DN(), Subjects: []string{"/O=Grid/*"}})
	if _, err := trust.Verify(inPolicy.FullChain(), time.Now()); err != nil {
		t.Fatalf("in-policy subject rejected: %v", err)
	}
	if _, err := trust.Verify(outOfPolicy.FullChain(), time.Now()); err == nil {
		t.Fatal("out-of-policy subject accepted")
	}
}

func TestExpiredCertificateRejected(t *testing.T) {
	ca := mustCA(t, "/O=Grid/CN=CA")
	user := mustIssue(t, ca, IssueOptions{Subject: "/O=Grid/CN=u", Lifetime: time.Hour})
	trust := NewTrustStore()
	trust.AddCA(ca.Certificate())
	if _, err := trust.Verify(user.FullChain(), time.Now().Add(2*time.Hour)); err == nil {
		t.Fatal("expired certificate accepted")
	}
	if _, err := trust.Verify(user.FullChain(), time.Now().Add(-time.Hour)); err == nil {
		t.Fatal("not-yet-valid certificate accepted")
	}
}

func TestDirectTrustSelfSigned(t *testing.T) {
	ss, err := SelfSignedCredential("/CN=dcsc-random", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	trust := NewTrustStore()
	if _, err := trust.Verify(ss.FullChain(), time.Now()); err == nil {
		t.Fatal("untrusted self-signed accepted")
	}
	trust.AddDirect(ss.Cert)
	id, err := trust.Verify(ss.FullChain(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if id.Identity != "/CN=dcsc-random" {
		t.Fatalf("identity %q", id.Identity)
	}
	// A *different* self-signed cert with same DN must still be rejected.
	ss2, _ := SelfSignedCredential("/CN=dcsc-random", time.Hour)
	if _, err := trust.Verify(ss2.FullChain(), time.Now()); err == nil {
		t.Fatal("directly-trusted lookup must be exact-certificate, not DN")
	}
}

func TestTrustStoreClone(t *testing.T) {
	ca := mustCA(t, "/O=Grid/CN=CA")
	trust := NewTrustStore()
	trust.AddCA(ca.Certificate())
	clone := trust.Clone()
	ca2 := mustCA(t, "/O=Grid/CN=CA2")
	clone.AddCA(ca2.Certificate())
	if len(trust.CAs()) != 1 {
		t.Fatal("clone mutation leaked into original")
	}
	if len(clone.CAs()) != 2 {
		t.Fatal("clone missing added CA")
	}
}

func TestPEMBundleRoundTrip(t *testing.T) {
	ca := mustCA(t, "/O=Grid/CN=CA")
	user := mustIssue(t, ca, IssueOptions{Subject: "/O=Grid/CN=u"})
	proxy, err := NewProxy(user, ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pemData, err := proxy.EncodePEM()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodePEM(pemData)
	if err != nil {
		t.Fatal(err)
	}
	if got.DN() != proxy.DN() {
		t.Fatalf("DN %q after round trip", got.DN())
	}
	if len(got.Chain) != len(proxy.Chain) {
		t.Fatalf("chain length %d, want %d", len(got.Chain), len(proxy.Chain))
	}
	if got.Key == nil {
		t.Fatal("key lost in round trip")
	}
	// The reconstituted credential must still verify.
	trust := NewTrustStore()
	trust.AddCA(ca.Certificate())
	if _, err := trust.Verify(got.FullChain(), time.Now()); err != nil {
		t.Fatal(err)
	}
}

func TestDecodePEMErrors(t *testing.T) {
	if _, err := DecodePEM([]byte("not pem")); err == nil {
		t.Fatal("garbage should fail")
	}
	if _, err := DecodePEM(nil); err == nil {
		t.Fatal("empty should fail")
	}
}

func TestIssueRejectsBadInput(t *testing.T) {
	ca := mustCA(t, "/O=Grid/CN=CA")
	if _, err := ca.Issue(IssueOptions{Subject: "/O=Grid/CN=u"}); err == nil {
		t.Fatal("zero lifetime should fail")
	}
	if _, err := ca.Issue(IssueOptions{Subject: "bad-dn", Lifetime: time.Hour}); err == nil {
		t.Fatal("bad DN should fail")
	}
}

func TestHostCertHasServerUsage(t *testing.T) {
	ca := mustCA(t, "/O=Grid/CN=CA")
	host := mustIssue(t, ca, IssueOptions{Subject: "/O=Grid/CN=host\\/gridftp.siteA", Host: true, DNSNames: []string{"gridftp.siteA"}})
	found := false
	for _, eku := range host.Cert.ExtKeyUsage {
		if eku == 2 /* x509.ExtKeyUsageServerAuth */ {
			found = true
		}
	}
	if !found {
		t.Fatal("host cert missing server-auth EKU")
	}
}
