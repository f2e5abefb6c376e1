package gridftp

import (
	"fmt"
	"testing"
	"time"

	"gridftp.dev/instant/internal/authz"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
)

// site is one administrative domain: its own CA, host credential, user,
// storage, and GridFTP server.
type site struct {
	name    string
	ca      *gsi.CA
	trust   *gsi.TrustStore
	host    *netsim.Host
	server  *Server
	storage *dsi.MemStorage
	addr    string
	user    *gsi.Credential // user certificate issued by this site's CA
	gridmap *authz.Gridmap
}

// newSite builds a site named name on network nw with one user account
// "alice" mapped from the site user credential.
func newSite(t *testing.T, nw *netsim.Network, name string, cfgMut ...func(*ServerConfig)) *site {
	t.Helper()
	ca, err := gsi.NewCA(gsi.DN("/O=Grid/OU="+name+"/CN=CA"), 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	hostCred, err := ca.Issue(gsi.IssueOptions{
		Subject: gsi.DN(fmt.Sprintf("/O=Grid/OU=%s/CN=host-%s", name, name)), Lifetime: 12 * time.Hour, Host: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	userCred, err := ca.Issue(gsi.IssueOptions{
		Subject: gsi.DN(fmt.Sprintf("/O=Grid/OU=%s/CN=alice", name)), Lifetime: 12 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore()
	trust.AddCA(ca.Certificate())

	storage := dsi.NewMemStorage()
	storage.AddUser("alice")
	gridmap := authz.NewGridmap()
	gridmap.AddEntry(userCred.DN(), "alice")

	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "alice"})

	host := nw.Host(name)
	cfg := ServerConfig{
		HostCred:       hostCred,
		Trust:          trust,
		Authz:          gridmap,
		Storage:        storage,
		MarkerInterval: 50 * time.Millisecond,
		EndpointName:   name,
	}
	for _, mut := range cfgMut {
		mut(&cfg)
	}
	srv, err := NewServer(host, cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.ListenAndServe(DefaultPort)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return &site{
		name: name, ca: ca, trust: trust, host: host, server: srv,
		storage: storage, addr: addr.String(), user: userCred, gridmap: gridmap,
	}
}

// connect dials the site with a fresh proxy of its user credential and
// delegates by default.
func (s *site) connect(t *testing.T, clientHost *netsim.Host, delegate bool) *Client {
	t.Helper()
	proxy, err := gsi.NewProxy(s.user, gsi.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(clientHost, s.addr, proxy, s.trust)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	if delegate {
		if err := c.Delegate(time.Hour); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// setup applies s to c's session and reads the replies Setup leaves owed.
func setup(t *testing.T, c *Client, s SessionSetup) {
	t.Helper()
	err := c.Setup(s)
	if err == nil {
		err = c.Settle()
	}
	if err != nil {
		t.Fatal(err)
	}
}

// putFile stores content directly into the site's storage.
func (s *site) putFile(t *testing.T, path string, content []byte) {
	t.Helper()
	f, err := s.storage.Create("alice", path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dsi.WriteAll(f, content); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

// readFile reads content from the site's storage.
func (s *site) readFile(t *testing.T, path string) []byte {
	t.Helper()
	f, err := s.storage.Open("alice", path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	data, err := dsi.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// pattern generates deterministic, position-dependent test data so any
// misplaced block shows up as corruption.
func pattern(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte((i*7 + i/251) % 256)
	}
	return data
}
