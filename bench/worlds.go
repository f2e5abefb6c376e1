package main

import (
	"fmt"
	"time"

	"gridftp.dev/instant/internal/authz"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/transfer"
)

// The reference links. refWAN is the E2 path (window-limited long fat
// pipe); hostedHop shapes every edge of the E14 triangle.
var (
	refWAN    = netsim.LinkParams{Bandwidth: 40e6, RTT: 20 * time.Millisecond, StreamWindow: 64 << 10}
	hostedHop = netsim.LinkParams{Bandwidth: 40e6, RTT: 10 * time.Millisecond, StreamWindow: 1 << 20}
)

const localUser = "alice"

// world is what the counters are read from, whichever kind was built.
type world struct {
	nw    *netsim.Network
	obs   *obs.Obs    // the one bundle handed to every server and the service
	links [][2]string // host pairs whose LinkStats the workload's ops cross
	rtt   time.Duration
}

// directWorld is one conventionally configured site (§III: CA, host
// credential, gridmap) and a client host, wired the way
// cmd/gridftp-server boots by default.
type directWorld struct {
	world
	raw    *dsi.MemStorage // undecorated backend, for staging and verification
	server *gridftp.Server
	addr   string
	user   *gsi.Credential
	trust  *gsi.TrustStore
	client *netsim.Host
}

func newDirectWorld(link netsim.LinkParams, rec *recorder) (*directWorld, error) {
	nw := netsim.NewNetwork()
	if link.Bandwidth > 0 || link.RTT > 0 {
		nw.SetLink("client", "siteA", link)
	}
	ca, err := gsi.NewCA("/O=Grid/OU=siteA/CN=CA", 24*time.Hour)
	if err != nil {
		return nil, err
	}
	hostCred, err := ca.Issue(gsi.IssueOptions{Subject: "/O=Grid/OU=siteA/CN=host-siteA", Lifetime: 12 * time.Hour, Host: true})
	if err != nil {
		return nil, err
	}
	user, err := ca.Issue(gsi.IssueOptions{Subject: "/O=Grid/OU=siteA/CN=alice", Lifetime: 12 * time.Hour})
	if err != nil {
		return nil, err
	}
	trust := gsi.NewTrustStore()
	if err := trust.AddCA(ca.Certificate()); err != nil {
		return nil, err
	}
	raw := dsi.NewMemStorage()
	raw.AddUser(localUser)
	gm := authz.NewGridmap()
	gm.AddEntry(user.DN(), localUser)

	o := obs.Nop()
	srv, err := gridftp.NewServer(nw.Host("siteA"), gridftp.ServerConfig{
		HostCred:       hostCred,
		Trust:          trust,
		Authz:          gm,
		Storage:        timed(raw, rec),
		MarkerInterval: 50 * time.Millisecond,
		EndpointName:   "siteA",
		Obs:            o,
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.ListenAndServe(gridftp.DefaultPort)
	if err != nil {
		return nil, err
	}
	return &directWorld{
		world:  world{nw: nw, obs: o, links: [][2]string{{"client", "siteA"}}, rtt: link.RTT},
		raw:    raw,
		server: srv,
		addr:   addr.String(),
		user:   user,
		trust:  trust,
		client: nw.Host("client"),
	}, nil
}

func (w *directWorld) close() { w.server.Close() }

// connect is the conventional client path: fresh proxy, GSI-authenticated
// control channel, delegation, stream count, protection level.
func (w *directWorld) connect(rec *recorder, streams int, prot gridftp.ProtLevel) (*gridftp.Client, error) {
	var proxy *gsi.Credential
	if err := rec.call("gsi.new_proxy", func() (err error) {
		proxy, err = gsi.NewProxy(w.user, gsi.ProxyOptions{})
		return err
	}); err != nil {
		return nil, err
	}
	var c *gridftp.Client
	if err := rec.call("gridftp.dial_auth", func() (err error) {
		c, err = gridftp.Dial(w.client, w.addr, proxy, w.trust)
		return err
	}); err != nil {
		return nil, err
	}
	err := rec.call("gridftp.delegate", func() error { return c.Delegate(2 * time.Hour) })
	if err == nil {
		err = rec.call("gridftp.opts", func() error {
			if err := c.SetParallelism(streams); err != nil {
				return err
			}
			if prot != gridftp.ProtClear {
				return c.SetProt(prot)
			}
			return nil
		})
	}
	if err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// hostedWorld is the paper's hosted arrangement: two GCMU endpoints and the
// transfer service on a third host, every hop shaped alike.
type hostedWorld struct {
	world
	svc        *transfer.Service
	epA, epB   *gcmu.Endpoint
	rawA, rawB *dsi.MemStorage
}

const (
	passwordA = "pwA"
	passwordB = "pwB"
)

func newHostedWorld(rec *recorder) (*hostedWorld, error) {
	nw := netsim.NewNetwork()
	hosts := []string{"globusonline", "siteA", "siteB"}
	var links [][2]string
	for i, a := range hosts {
		for _, b := range hosts[i+1:] {
			nw.SetLink(a, b, hostedHop)
			links = append(links, [2]string{a, b})
		}
	}
	o := obs.Nop()
	install := func(name, password string) (*gcmu.Endpoint, *dsi.MemStorage, error) {
		dir := pam.NewLDAPDirectory("dc=" + name)
		dir.AddEntry(localUser, password)
		accounts := pam.NewAccountDB()
		accounts.Add(pam.Account{Name: localUser})
		stack := pam.NewStack("myproxy", accounts,
			pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}})
		raw := dsi.NewMemStorage()
		raw.AddUser(localUser)
		var ep *gcmu.Endpoint
		err := rec.call("gcmu.install", func() (err error) {
			ep, err = gcmu.Install(gcmu.Options{
				Name: name, Host: nw.Host(name), Auth: stack, Accounts: accounts,
				Storage: timed(raw, rec), Obs: o,
			})
			return err
		})
		return ep, raw, err
	}
	epA, rawA, err := install("siteA", passwordA)
	if err != nil {
		return nil, err
	}
	epB, rawB, err := install("siteB", passwordB)
	if err != nil {
		epA.Close()
		return nil, err
	}
	w := &hostedWorld{
		world: world{nw: nw, obs: o, links: links, rtt: hostedHop.RTT},
		epA:   epA, epB: epB, rawA: rawA, rawB: rawB,
	}
	w.svc = transfer.NewService(nw.Host("globusonline"), transfer.Config{Obs: o})
	for _, ep := range []*gcmu.Endpoint{epA, epB} {
		if err := w.svc.RegisterEndpoint(transfer.Endpoint{
			Name: ep.Name, GridFTPAddr: ep.GridFTPAddr, MyProxyAddr: ep.MyProxyAddr,
			Trust: ep.Trust, CADN: ep.SigningCA.DN(),
		}); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *hostedWorld) close() {
	w.epA.Close()
	w.epB.Close()
}

// activate hands both site passwords to the service (Fig 6).
func (w *hostedWorld) activate(rec *recorder) error {
	for _, a := range []struct{ ep, pw string }{{"siteA", passwordA}, {"siteB", passwordB}} {
		if err := rec.call("transfer.activate", func() error {
			return w.svc.ActivateWithPassword(a.ep, localUser, a.pw)
		}); err != nil {
			return fmt.Errorf("activate %s: %w", a.ep, err)
		}
	}
	return nil
}
