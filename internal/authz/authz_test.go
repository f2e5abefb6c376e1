package authz

import (
	"errors"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/pam"
)

func identity(t *testing.T, caDN, subject gsi.DN) (*gsi.VerifiedIdentity, *gsi.CA) {
	t.Helper()
	ca, err := gsi.NewCA(caDN, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cred, err := ca.Issue(gsi.IssueOptions{Subject: subject, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore()
	trust.AddCA(ca.Certificate())
	id, err := trust.Verify(cred.FullChain(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	return id, ca
}

func TestGridmapMapping(t *testing.T) {
	id, _ := identity(t, "/O=Grid/CN=CA", "/O=Grid/CN=alice smith")
	g := NewGridmap()
	g.AddEntry("/O=Grid/CN=alice smith", "asmith")
	user, err := g.Map(id)
	if err != nil || user != "asmith" {
		t.Fatalf("map: %q %v", user, err)
	}
	g = NewGridmap()
	g.AddEntry("/O=Grid/CN=alice smithers", "asmithers")
	if _, err := g.Map(id); !errors.Is(err, ErrNoMapping) {
		t.Fatalf("unmapped DN: %v", err)
	}
}

func TestGridmapProxyIdentityMapping(t *testing.T) {
	// Gridmaps map the base identity, not the proxy subject.
	ca, _ := gsi.NewCA("/O=Grid/CN=CA", time.Hour)
	user, _ := ca.Issue(gsi.IssueOptions{Subject: "/O=Grid/CN=bob", Lifetime: time.Hour})
	proxy, _ := gsi.NewProxy(user, gsi.ProxyOptions{})
	trust := gsi.NewTrustStore()
	trust.AddCA(ca.Certificate())
	id, err := trust.Verify(proxy.FullChain(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	g := NewGridmap()
	g.AddEntry("/O=Grid/CN=bob", "bob")
	if u, err := g.Map(id); err != nil || u != "bob" {
		t.Fatalf("proxy map: %q %v", u, err)
	}
}

func TestGCMUCalloutParsesUsernameFromDN(t *testing.T) {
	id, ca := identity(t, "/O=GCMU/OU=siteA/CN=CA", "/O=GCMU/OU=siteA/CN=alice")
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "alice"})
	co := &GCMUCallout{LocalCA: ca.DN(), Accounts: accounts}
	user, err := co.Map(id)
	if err != nil || user != "alice" {
		t.Fatalf("map: %q %v", user, err)
	}
}

func TestGCMUCalloutRejectsForeignIssuer(t *testing.T) {
	id, _ := identity(t, "/O=Other/CN=CA", "/O=Other/CN=alice")
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "alice"})
	co := &GCMUCallout{LocalCA: "/O=GCMU/OU=siteA/CN=CA", Accounts: accounts}
	if _, err := co.Map(id); !errors.Is(err, ErrNoMapping) {
		t.Fatalf("foreign issuer: %v", err)
	}
}

func TestGCMUCalloutRejectsUnknownAccount(t *testing.T) {
	id, ca := identity(t, "/O=GCMU/OU=siteA/CN=CA", "/O=GCMU/OU=siteA/CN=ghost")
	co := &GCMUCallout{LocalCA: ca.DN(), Accounts: pam.NewAccountDB()}
	if _, err := co.Map(id); !errors.Is(err, ErrNoMapping) {
		t.Fatalf("unknown account: %v", err)
	}
}

func TestChainFallsThrough(t *testing.T) {
	id, ca := identity(t, "/O=Grid/CN=Legacy CA", "/O=Grid/CN=carol")
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "carol"})
	gcmuCo := &GCMUCallout{LocalCA: "/O=GCMU/OU=siteA/CN=CA", Accounts: accounts}
	gm := NewGridmap()
	gm.AddEntry("/O=Grid/CN=carol", "carol")
	chain := Chain{gcmuCo, gm}
	user, err := chain.Map(id)
	if err != nil || user != "carol" {
		t.Fatalf("chain: %q %v", user, err)
	}
	if !strings.Contains(chain.Name(), "gcmu-authz") || !strings.Contains(chain.Name(), "gridmap") {
		t.Fatalf("chain name %q", chain.Name())
	}
	_ = ca
	// Empty chain fails closed.
	if _, err := (Chain{}).Map(id); !errors.Is(err, ErrNoMapping) {
		t.Fatalf("empty chain: %v", err)
	}
	// Chain with no matching callout reports all reasons.
	if _, err := (Chain{gcmuCo, NewGridmap()}).Map(id); err == nil || !strings.Contains(err.Error(), "gridmap") {
		t.Fatalf("chain failure detail: %v", err)
	}
}
