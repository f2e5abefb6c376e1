// Package world builds the paper's scenario shapes on the netsim substrate,
// each in one place: a §III conventional site (NewSite), a §IV GCMU endpoint
// over a site directory (NewEndpoint), and the §VI hosted triangle
// (NewHosted). The experiments, the binaries under cmd/ and the cross-package
// tests take their worlds from here; each constructor takes the component's
// own config struct and fills in only what the shape decides.
package world

import (
	"fmt"
	"time"

	"gridftp.dev/instant/internal/authz"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/oauth"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/transfer"
)

// User is the one local account of a conventional site and of the hosted
// triangle's endpoints.
const User = "alice"

// The site passwords of the hosted triangle's endpoints.
const (
	passwordA = "pwA"
	passwordB = "pwB"
)

// Site is a §III conventional GridFTP site: its own CA, a host credential,
// User with a static credential mapped by a gridmap, and a server on the
// host named after the site.
type Site struct {
	CA      *gsi.CA
	Trust   *gsi.TrustStore
	User    *gsi.Credential
	Gridmap *authz.Gridmap
	Storage *dsi.MemStorage
	Server  *gridftp.Server
	Addr    string
}

// NewSite starts a site on nw.Host(name) in a trust domain of its own. cfg's
// HostCred, Trust, Authz, Storage and EndpointName are the site's; every
// other field (markers, channel cache, stripes, telemetry) passes through.
func NewSite(nw *netsim.Network, name string, cfg gridftp.ServerConfig) (*Site, error) {
	ca, err := gsi.NewCA(gsi.DN("/O=Grid/OU="+name+"/CN=CA"), 24*time.Hour)
	if err != nil {
		return nil, err
	}
	user, err := ca.Issue(gsi.IssueOptions{
		Subject: gsi.DN(fmt.Sprintf("/O=Grid/OU=%s/CN=%s", name, User)), Lifetime: 12 * time.Hour,
	})
	if err != nil {
		return nil, err
	}
	trust := gsi.NewTrustStore()
	if err := trust.AddCA(ca.Certificate()); err != nil {
		return nil, err
	}
	gm := authz.NewGridmap()
	gm.AddEntry(user.DN(), User)
	s := &Site{CA: ca, Trust: trust, User: user, Gridmap: gm}
	if err := s.serve(nw, name, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Peer starts a second server on nw.Host(name) inside s's trust domain: the
// same CA, user and gridmap, storage of its own, no markers.
func (s *Site) Peer(nw *netsim.Network, name string) (*Site, error) {
	p := &Site{CA: s.CA, Trust: s.Trust, User: s.User, Gridmap: s.Gridmap}
	if err := p.serve(nw, name, gridftp.ServerConfig{}); err != nil {
		return nil, err
	}
	return p, nil
}

func (s *Site) serve(nw *netsim.Network, name string, cfg gridftp.ServerConfig) error {
	hostCred, err := s.CA.Issue(gsi.IssueOptions{
		Subject: gsi.DN(fmt.Sprintf("/O=Grid/OU=%s/CN=host-%s", name, name)), Lifetime: 12 * time.Hour, Host: true,
	})
	if err != nil {
		return err
	}
	s.Storage = dsi.NewMemStorage()
	s.Storage.AddUser(User)
	cfg.HostCred, cfg.Trust, cfg.Authz, cfg.Storage, cfg.EndpointName = hostCred, s.Trust, s.Gridmap, s.Storage, name
	srv, err := gridftp.NewServer(nw.Host(name), cfg)
	if err != nil {
		return err
	}
	addr, err := srv.ListenAndServe(gridftp.DefaultPort)
	if err != nil {
		srv.Close()
		return err
	}
	s.Server, s.Addr = srv, addr.String()
	return nil
}

// Close stops the site's server.
func (s *Site) Close() { s.Server.Close() }

// Put writes a file into User's sandbox directly.
func (s *Site) Put(path string, content []byte) error {
	return put(s.Storage, path, content)
}

// Connect opens a session from a host with a fresh proxy of User and
// delegates to the server, which then holds a credential for DCAU.
func (s *Site) Connect(from *netsim.Host, opts gridftp.DialOptions) (*gridftp.Client, error) {
	proxy, err := gsi.NewProxy(s.User, gsi.ProxyOptions{})
	if err != nil {
		return nil, err
	}
	c, err := gridftp.DialWithOptions(from, s.Addr, proxy, s.Trust, opts)
	if err != nil {
		return nil, err
	}
	if err := c.Delegate(2 * time.Hour); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// Directory builds a site's authentication system: one LDAP directory
// holding users (name → password) behind a one-module PAM stack, and a local
// account for each user.
func Directory(domain string, users map[string]string) (*pam.Stack, *pam.AccountDB) {
	dir := pam.NewLDAPDirectory("dc=" + domain)
	accounts := pam.NewAccountDB()
	for name, password := range users {
		dir.AddEntry(name, password)
		accounts.Add(pam.Account{Name: name})
	}
	return pam.NewStack("myproxy", accounts,
		pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}}), accounts
}

// NewEndpoint installs a §IV GCMU endpoint whose Auth and Accounts are
// Directory(opts.Name, users); every other field of opts passes to
// gcmu.Install as given.
func NewEndpoint(opts gcmu.Options, users map[string]string) (*gcmu.Endpoint, error) {
	opts.Auth, opts.Accounts = Directory(opts.Name, users)
	return gcmu.Install(opts)
}

// Hosted is the §VI triangle: GCMU endpoints A ("siteA") and B ("siteB") in
// two trust domains, each with User, and the hosted transfer service on host
// "globusonline" with both registered.
type Hosted struct {
	Net     *netsim.Network
	Service *transfer.Service
	A, B    *gcmu.Endpoint
	// FaultB wraps B's storage: arming it fails the transfer into B.
	FaultB *dsi.FaultStorage
}

// NewHosted builds the triangle on a network of its own. opts is both
// endpoints' install template: Name, Host, Storage, Auth and Accounts are
// set per endpoint, the rest (OAuth, markers, telemetry) passes through.
// With opts.WithOAuth the service is registered as each site's OAuth client.
func NewHosted(cfg transfer.Config, opts gcmu.Options) (*Hosted, error) {
	h := &Hosted{Net: netsim.NewNetwork()}
	mem := dsi.NewMemStorage()
	mem.AddUser(User)
	h.FaultB = dsi.NewFaultStorage(mem)
	install := func(name, password string, storage dsi.Storage) (*gcmu.Endpoint, error) {
		o := opts
		o.Name, o.Host, o.Storage = name, h.Net.Host(name), storage
		return NewEndpoint(o, map[string]string{User: password})
	}
	var err error
	if h.A, err = install("siteA", passwordA, nil); err != nil {
		return nil, err
	}
	if h.B, err = install("siteB", passwordB, h.FaultB); err != nil {
		h.A.Close()
		return nil, err
	}
	h.Service = transfer.NewService(h.Net.Host("globusonline"), cfg)
	for _, ep := range []*gcmu.Endpoint{h.A, h.B} {
		if err := h.Service.RegisterEndpoint(transfer.Endpoint{
			Name: ep.Name, GridFTPAddr: ep.GridFTPAddr, MyProxyAddr: ep.MyProxyAddr,
			OAuthAddr: ep.OAuthAddr, Trust: ep.Trust, CADN: ep.SigningCA.DN(),
		}); err != nil {
			h.Close()
			return nil, err
		}
		if ep.OAuth != nil {
			ep.OAuth.RegisterClient(transfer.OAuthClient)
		}
	}
	return h, nil
}

// Activate activates both endpoints for User: when they run OAuth, by
// logging in at each site's own page from host "laptop", so no password
// reaches the service (Fig 7); otherwise by handing the service both site
// passwords (Fig 6).
func (h *Hosted) Activate() error {
	for _, a := range []struct {
		ep       *gcmu.Endpoint
		password string
	}{{h.A, passwordA}, {h.B, passwordB}} {
		var err error
		if a.ep.OAuth != nil {
			err = h.Service.ActivateWithOAuth(a.ep.Name, User, func(base, session string) (string, error) {
				return oauth.Login(oauth.HTTPClient(h.Net.Host("laptop"), a.ep.Trust), base, session, User, a.password)
			})
		} else {
			err = h.Service.ActivateWithPassword(a.ep.Name, User, a.password)
		}
		if err != nil {
			return fmt.Errorf("activate %s: %w", a.ep.Name, err)
		}
	}
	return nil
}

// Put writes a file into User's sandbox at A directly.
func (h *Hosted) Put(path string, content []byte) error {
	return put(h.A.Storage, path, content)
}

// Close stops the service, then both endpoints.
func (h *Hosted) Close() {
	h.Service.Close()
	h.A.Close()
	h.B.Close()
}

func put(storage dsi.Storage, path string, content []byte) error {
	f, err := storage.Create(User, path)
	if err != nil {
		return err
	}
	if err := dsi.WriteAll(f, content); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
