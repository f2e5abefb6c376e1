package gcmu

import (
	"bytes"
	"testing"
	"time"

	"gridftp.dev/instant/internal/authz"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
)

// installSite builds a GCMU endpoint with an LDAP-backed PAM stack and
// users alice/bob.
func installSite(t *testing.T, nw *netsim.Network, name string, mut ...func(*Options)) *Endpoint {
	t.Helper()
	dir := pam.NewLDAPDirectory("dc=" + name)
	dir.AddEntry("alice", "alicepw")
	dir.AddEntry("bob", "bobpw")
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "alice"})
	accounts.Add(pam.Account{Name: "bob"})
	stack := pam.NewStack("myproxy", accounts,
		pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}})
	opts := Options{
		Name:     name,
		Host:     nw.Host(name),
		Auth:     stack,
		Accounts: accounts,
	}
	for _, m := range mut {
		m(&opts)
	}
	ep, err := Install(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	return ep
}

func TestGCMUWorkflowEndToEnd(t *testing.T) {
	// Fig 3: username/password -> MyProxy Online CA -> short-lived cert
	// with username in the DN -> GridFTP auth -> AUTHZ parses username ->
	// transfer, with NO gridmap and NO external CA.
	nw := netsim.NewNetwork()
	ep := installSite(t, nw, "siteA")
	laptop := nw.Host("laptop")

	cred, err := ep.Logon(laptop, "alice", pam.PasswordConv("alicepw"))
	if err != nil {
		t.Fatal(err)
	}
	if cred.DN().LastCN() != "alice" {
		t.Fatalf("username not embedded in DN: %q", cred.DN())
	}

	client, err := ep.Connect(laptop, "alice", pam.PasswordConv("alicepw"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	payload := []byte("instant gridftp")
	if _, err := client.Put("/hello.txt", dsi.NewBufferFile(payload)); err != nil {
		t.Fatal(err)
	}
	dst := dsi.NewBufferFile(nil)
	if _, err := client.Get("/hello.txt", dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), payload) {
		t.Fatal("content mismatch")
	}
}

func TestGCMUWrongPasswordNoCert(t *testing.T) {
	nw := netsim.NewNetwork()
	ep := installSite(t, nw, "siteA")
	if _, err := ep.Logon(nw.Host("laptop"), "alice", pam.PasswordConv("wrong")); err == nil {
		t.Fatal("wrong password produced a certificate")
	}
}

func TestGCMUUsersIsolatedByAccount(t *testing.T) {
	nw := netsim.NewNetwork()
	ep := installSite(t, nw, "siteA")
	laptop := nw.Host("laptop")
	alice, err := ep.Connect(laptop, "alice", pam.PasswordConv("alicepw"))
	if err != nil {
		t.Fatal(err)
	}
	defer alice.Close()
	bob, err := ep.Connect(laptop, "bob", pam.PasswordConv("bobpw"))
	if err != nil {
		t.Fatal(err)
	}
	defer bob.Close()

	if _, err := alice.Put("/private.txt", dsi.NewBufferFile([]byte("alice's"))); err != nil {
		t.Fatal(err)
	}
	// Bob (authenticated as bob, setuid bob) must not see alice's file.
	if _, err := bob.Size("/private.txt"); err == nil {
		t.Fatal("cross-account access allowed")
	}
}

func TestGCMURejectsForeignCA(t *testing.T) {
	// Certificates from an unrelated CA are refused — the endpoint's
	// trust roots contain only its own MyProxy Online CA.
	nw := netsim.NewNetwork()
	ep := installSite(t, nw, "siteA")
	foreign, err := gsi.NewCA("/O=Other/CN=CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := foreign.Issue(gsi.IssueOptions{Subject: "/O=Other/CN=alice", Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	trust := ep.Trust.Clone()
	trust.AddCA(foreign.Certificate()) // client may trust it; the server must not
	// Dial returns once the server is verified; the server's refusal of the
	// client is the first read's error.
	c, err := gridftp.Dial(nw.Host("laptop"), ep.GridFTPAddr, cred, trust)
	if err == nil {
		defer c.Close()
		err = c.Noop()
	}
	if err == nil {
		t.Fatal("foreign-CA login accepted")
	}
}

func TestGCMUSigningPolicyConfinesCA(t *testing.T) {
	// Even if someone coaxed the endpoint CA key into signing an
	// out-of-namespace subject, the signing policy rejects it at
	// verification time.
	nw := netsim.NewNetwork()
	ep := installSite(t, nw, "siteA")
	rogue, err := ep.SigningCA.Issue(gsi.IssueOptions{Subject: "/O=Grid/OU=elsewhere/CN=root", Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Trust.Verify(rogue.FullChain(), time.Now()); err == nil {
		t.Fatal("out-of-namespace subject passed signing policy")
	}
}

func TestGCMULegacyGridmapFallback(t *testing.T) {
	// A user with a conventional certificate (unknown to the online CA)
	// still maps through the legacy gridmap when configured.
	nw := netsim.NewNetwork()
	legacyCA, err := gsi.NewCA("/O=Grid/CN=Legacy CA", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	legacyUser, err := legacyCA.Issue(gsi.IssueOptions{Subject: "/O=Grid/CN=carol", Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	gm := authz.NewGridmap()
	gm.AddEntry(legacyUser.DN(), "alice") // maps to an existing account
	ep := installSite(t, nw, "siteA", func(o *Options) { o.LegacyGridmap = gm })
	ep.Trust.AddCA(legacyCA.Certificate()) // admin added the legacy CA root

	client, err := gridftp.Dial(nw.Host("laptop"), ep.GridFTPAddr, legacyUser, ep.Trust)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.Noop(); err != nil {
		t.Fatal(err)
	}
}

func TestSetupSummaries(t *testing.T) {
	conv := Summarize(append(ConventionalServerSetup(), ConventionalUserSetup()...))
	gcmu := Summarize(append(GCMUServerSetup(), GCMUClientSetup()...))

	if gcmu.Steps >= conv.Steps {
		t.Fatalf("GCMU steps %d should be fewer than conventional %d", gcmu.Steps, conv.Steps)
	}
	if gcmu.OutOfBand != 0 {
		t.Fatalf("GCMU should need no out-of-band steps, has %d", gcmu.OutOfBand)
	}
	if conv.OutOfBand < 2 {
		t.Fatalf("conventional setup should count CA vetting + gridmap round trips, has %d", conv.OutOfBand)
	}
	if gcmu.TotalTime >= conv.TotalTime/10 {
		t.Fatalf("GCMU time-to-first-transfer %v not an order of magnitude below conventional %v",
			gcmu.TotalTime, conv.TotalTime)
	}
	if (StepKind(99)).String() != "unknown" {
		t.Fatal("StepKind.String fallback")
	}
}

func TestInstallValidation(t *testing.T) {
	nw := netsim.NewNetwork()
	if _, err := Install(Options{}); err == nil {
		t.Fatal("empty options accepted")
	}
	if _, err := Install(Options{Name: "x", Host: nw.Host("x")}); err == nil {
		t.Fatal("missing auth stack accepted")
	}
}
