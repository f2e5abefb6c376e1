// Package gcmu implements Globus Connect Multi User (§IV of the paper):
// the packaging that combines a GridFTP server, a MyProxy Online CA, a
// custom authorization callout, and (optionally) an OAuth server into an
// endpoint that is trivial to install — no host certificates from external
// CAs, no gridmap file, no per-user security configuration.
package gcmu

import (
	"errors"
	"fmt"
	"log/slog"
	"time"

	"gridftp.dev/instant/internal/authz"
	"gridftp.dev/instant/internal/ca"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/myproxy"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/oauth"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/streamstats"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/usagestats"
)

// Options configure a GCMU server install.
type Options struct {
	// Name is the endpoint name (also the DN organizational unit).
	Name string
	// Host the endpoint runs on.
	Host *netsim.Host
	// Auth is the site PAM stack (LDAP/NIS/RADIUS/OTP) — Fig 3 step 2.
	Auth *pam.Stack
	// Accounts is the local account database ("setuid" targets).
	Accounts *pam.AccountDB
	// Storage is the DSI backend (defaults to an in-memory store with a
	// sandbox per account).
	Storage dsi.Storage
	// WithOAuth additionally installs the OAuth server (§VI, Fig 7; the
	// paper lists packaging it as future work — implemented here).
	WithOAuth bool
	// LegacyGridmap, if non-nil, is consulted after the GCMU callout so
	// existing DN mappings keep working. Tests set it: no default gives a map.
	LegacyGridmap *authz.Gridmap
	// MarkerInterval is the endpoint server's marker cadence: STOR's restart
	// markers (111) and the performance markers (112) of STOR and RETR. Zero
	// disables both (gridftp.ServerConfig.MarkerInterval).
	MarkerInterval time.Duration
	// DataTimeout bounds GridFTP waits for data connections.
	DataTimeout time.Duration
	// Usage, if non-nil, receives a report of every transfer the endpoint's
	// GridFTP server completes (gridftp.ServerConfig.Usage).
	Usage *usagestats.Collector
	// Obs receives the endpoint's structured logs, metrics, and spans;
	// it is passed through to the GridFTP server. Nil disables it.
	Obs *obs.Obs
	// Streams is the per-stream wire-telemetry registry passed through to
	// the GridFTP server: every data stream the endpoint opens is tracked
	// (bytes, EWMA throughput, TCP_INFO, stall watchdog). Nil disables
	// stream telemetry.
	Streams *streamstats.Registry
}

// Endpoint is a running GCMU installation.
type Endpoint struct {
	Name string
	Host *netsim.Host

	// SigningCA is the MyProxy Online CA's signing authority, created at
	// install time — no external CA involved.
	SigningCA *gsi.CA
	OnlineCA  *ca.OnlineCA
	// Trust is the endpoint's trust store (its own CA only, by default).
	Trust *gsi.TrustStore

	GridFTP     *gridftp.Server
	GridFTPAddr string

	MyProxy     *myproxy.Server
	MyProxyAddr string

	OAuth     *oauth.Server
	OAuthAddr string

	Accounts *pam.AccountDB
	Storage  dsi.Storage

	log *slog.Logger
}

// Install performs the GCMU server installation (§IV.D): it creates the
// site CA, issues host credentials, wires the AUTHZ callout, and starts
// the MyProxy and GridFTP servers (plus OAuth when requested). The whole
// thing is the programmatic equivalent of "sudo ./install".
func Install(opts Options) (*Endpoint, error) {
	if opts.Name == "" || opts.Host == nil {
		return nil, errors.New("gcmu: Name and Host are required")
	}
	if opts.Auth == nil {
		return nil, errors.New("gcmu: a PAM stack is required (the local authentication system)")
	}
	if opts.Accounts == nil {
		opts.Accounts = pam.NewAccountDB()
	}
	if opts.Storage == nil {
		mem := dsi.NewMemStorage()
		for _, name := range opts.Accounts.Names() {
			mem.AddUser(name)
		}
		opts.Storage = mem
	}

	// 1. Site CA — created locally; obtaining a certificate from a
	//    well-known external CA (§III.A step e) is exactly what GCMU
	//    eliminates.
	signing, err := gsi.NewCA(gsi.DN(fmt.Sprintf("/O=GCMU/OU=%s/CN=%s MyProxy CA", opts.Name, opts.Name)), 10*365*24*time.Hour)
	if err != nil {
		return nil, err
	}
	trust := gsi.NewTrustStore()
	if err := trust.AddCA(signing.Certificate()); err != nil {
		return nil, err
	}
	// The site CA only ever signs its own namespace.
	trust.AddPolicy(&gsi.SigningPolicy{
		CA:       signing.DN(),
		Subjects: []string{fmt.Sprintf("/O=GCMU/OU=%s/*", opts.Name)},
	})

	// 2. Host credentials for the services.
	hostCred := func(service string) (*gsi.Credential, error) {
		return signing.Issue(gsi.IssueOptions{
			Subject:  gsi.DN(fmt.Sprintf("/O=GCMU/OU=%s/CN=host %s.%s", opts.Name, service, opts.Name)),
			Lifetime: 5 * 365 * 24 * time.Hour,
			Host:     true,
		})
	}
	gridftpCred, err := hostCred("gridftp")
	if err != nil {
		return nil, err
	}
	myproxyCred, err := hostCred("myproxy")
	if err != nil {
		return nil, err
	}

	// 3. Online CA bound to the site authentication system.
	online := ca.New(signing, opts.Auth, gsi.DN(fmt.Sprintf("/O=GCMU/OU=%s", opts.Name)))

	// 4. AUTHZ callout: username parsed from the DN for local-CA certs
	//    (§IV.C); optional legacy gridmap as fallback.
	var callout authz.Callout = &authz.GCMUCallout{LocalCA: signing.DN(), Accounts: opts.Accounts}
	if opts.LegacyGridmap != nil {
		callout = authz.Chain{callout, opts.LegacyGridmap}
	}

	log := opts.Obs.Logger().With("component", "gcmu", "endpoint", opts.Name)
	log.Info("install: site CA created", "dn", string(signing.DN()))
	ep := &Endpoint{
		Name:      opts.Name,
		Host:      opts.Host,
		SigningCA: signing,
		OnlineCA:  online,
		Trust:     trust,
		Accounts:  opts.Accounts,
		Storage:   opts.Storage,
		log:       log,
	}

	// 5. MyProxy server.
	ep.MyProxy = &myproxy.Server{OnlineCA: online, HostCred: myproxyCred, Obs: opts.Obs}
	mpAddr, err := ep.MyProxy.ListenAndServe(opts.Host, myproxy.DefaultPort)
	if err != nil {
		return nil, err
	}
	ep.MyProxyAddr = mpAddr.String()
	log.Info("install: myproxy up", "addr", ep.MyProxyAddr)

	// 6. GridFTP server.
	srv, err := gridftp.NewServer(opts.Host, gridftp.ServerConfig{
		HostCred:       gridftpCred,
		Trust:          trust,
		Authz:          callout,
		Storage:        opts.Storage,
		Banner:         fmt.Sprintf("GCMU GridFTP server on %s ready", opts.Name),
		MarkerInterval: opts.MarkerInterval,
		DataTimeout:    opts.DataTimeout,
		Usage:          opts.Usage,
		EndpointName:   opts.Name,
		Obs:            opts.Obs,
		Streams:        opts.Streams,
	})
	if err != nil {
		return nil, err
	}
	gfAddr, err := srv.ListenAndServe(gridftp.DefaultPort)
	if err != nil {
		return nil, err
	}
	ep.GridFTP = srv
	ep.GridFTPAddr = gfAddr.String()
	log.Info("install: gridftp up", "addr", ep.GridFTPAddr)

	// 7. Optional OAuth server (future work in the paper; packaged here).
	if opts.WithOAuth {
		oaCred, err := hostCred("oauth")
		if err != nil {
			return nil, err
		}
		ep.OAuth = oauth.NewServer(online, oaCred)
		oaAddr, err := ep.OAuth.ListenAndServe(opts.Host, oauth.DefaultPort)
		if err != nil {
			return nil, err
		}
		ep.OAuthAddr = oaAddr.String()
		log.Info("install: oauth up", "addr", ep.OAuthAddr)
	}
	if opts.Obs != nil {
		opts.Obs.Registry().Counter("gcmu.endpoints_installed").Inc()
	}
	log.Info("endpoint.install", "gridftp", ep.GridFTPAddr, "myproxy", ep.MyProxyAddr, "oauth", ep.OAuthAddr)
	return ep, nil
}

// Close stops all endpoint services.
func (ep *Endpoint) Close() {
	if ep.GridFTP != nil {
		ep.GridFTP.Close()
	}
	if ep.MyProxy != nil {
		ep.MyProxy.Close()
	}
	if ep.OAuth != nil {
		ep.OAuth.Close()
	}
	ep.log.Info("endpoint closed")
}

// Logon is the GCMU client path (§IV.E): obtain a short-lived credential
// from the endpoint's MyProxy CA with site username/password (myproxy-logon
// -b -T -s <server>), ready to authenticate GridFTP sessions.
func (ep *Endpoint) Logon(from *netsim.Host, username string, conv pam.Conversation) (*gsi.Credential, error) {
	return myproxy.Logon(from, ep.MyProxyAddr, username, conv, myproxy.LogonOptions{Trust: ep.Trust})
}

// Connect performs logon and opens an authenticated GridFTP session with
// delegation, the full "instant GridFTP" user experience.
func (ep *Endpoint) Connect(from *netsim.Host, username string, conv pam.Conversation) (*gridftp.Client, error) {
	cred, err := ep.Logon(from, username, conv)
	if err != nil {
		return nil, err
	}
	client, err := gridftp.Dial(from, ep.GridFTPAddr, cred, ep.Trust)
	if err != nil {
		return nil, err
	}
	if err := client.Delegate(ca.DefaultLifetime); err != nil {
		client.Close()
		return nil, err
	}
	return client, nil
}
