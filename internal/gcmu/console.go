package gcmu

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"net"
	"net/http"
	"time"

	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/usagestats"
)

// The paper's §VIII closes with future work: "a simple web-based (and
// command line) administrative console for configuring the virtual
// appliance." Console is that component: an HTTPS admin API for a running
// GCMU endpoint — status, account management, and usage — protected by an
// admin token.
//
// Endpoints (JSON over HTTPS, "Authorization: Bearer <token>"):
//
//	GET  /status            endpoint summary (services, CA, counters)
//	GET  /accounts          local account list
//	POST /accounts          {"name": "..."} provision an account
//	POST /accounts/lock     {"name": "...", "locked": true|false}
//	GET  /usage             per-day transfer statistics

// Console is the admin console for one endpoint.
type Console struct {
	Endpoint *Endpoint
	// Token authenticates the administrator.
	Token string
	// Usage, if set, is surfaced at /usage.
	Usage *usagestats.Collector

	httpSrv *http.Server
}

// statusReply is the GET /status body.
type statusReply struct {
	Name        string   `json:"name"`
	GridFTPAddr string   `json:"gridftp_addr"`
	MyProxyAddr string   `json:"myproxy_addr"`
	OAuthAddr   string   `json:"oauth_addr,omitempty"`
	CADN        string   `json:"ca_dn"`
	CertsIssued int64    `json:"certs_issued"`
	Accounts    []string `json:"accounts"`
	GridmapFree bool     `json:"gridmap_free"`
}

// ListenAndServe starts the console on the endpoint's host.
func (c *Console) ListenAndServe(port int) (net.Addr, error) {
	cred, err := c.Endpoint.SigningCA.Issue(gsi.IssueOptions{
		Subject:  c.Endpoint.SigningCA.DN().StripLastCN().AppendCN("host console." + c.Endpoint.Name),
		Lifetime: 5 * 365 * 24 * time.Hour,
		Host:     true,
	})
	if err != nil {
		return nil, err
	}
	l, err := c.Endpoint.Host.Listen(port)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /status", c.auth(c.handleStatus))
	mux.HandleFunc("GET /accounts", c.auth(c.handleAccounts))
	mux.HandleFunc("POST /accounts", c.auth(c.handleAddAccount))
	mux.HandleFunc("POST /accounts/lock", c.auth(c.handleLockAccount))
	mux.HandleFunc("GET /usage", c.auth(c.handleUsage))
	c.httpSrv = gsi.ServeHTTPS(l, cred, mux)
	return l.Addr(), nil
}

// Close stops the console.
func (c *Console) Close() error {
	if c.httpSrv != nil {
		return c.httpSrv.Close()
	}
	return nil
}

func (c *Console) auth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		got := r.Header.Get("Authorization")
		want := "Bearer " + c.Token
		if c.Token == "" || subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
			writeConsoleJSON(w, http.StatusUnauthorized, map[string]string{"error": "bad admin token"})
			return
		}
		h(w, r)
	}
}

func writeConsoleJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (c *Console) handleStatus(w http.ResponseWriter, r *http.Request) {
	ep := c.Endpoint
	writeConsoleJSON(w, http.StatusOK, statusReply{
		Name:        ep.Name,
		GridFTPAddr: ep.GridFTPAddr,
		MyProxyAddr: ep.MyProxyAddr,
		OAuthAddr:   ep.OAuthAddr,
		CADN:        string(ep.SigningCA.DN()),
		CertsIssued: ep.OnlineCA.Issued(),
		Accounts:    ep.Accounts.Names(),
		GridmapFree: true,
	})
}

func (c *Console) handleAccounts(w http.ResponseWriter, r *http.Request) {
	writeConsoleJSON(w, http.StatusOK, map[string][]string{"accounts": c.Endpoint.Accounts.Names()})
}

func (c *Console) handleAddAccount(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Name == "" {
		writeConsoleJSON(w, http.StatusBadRequest, map[string]string{"error": "need a name"})
		return
	}
	acct := c.Endpoint.Accounts.Add(pam.Account{Name: body.Name})
	// Provision a storage sandbox when the backend supports it.
	type userAdder interface{ AddUser(string) }
	type userAdderErr interface{ AddUser(string) error }
	switch st := c.Endpoint.Storage.(type) {
	case userAdder:
		st.AddUser(body.Name)
	case userAdderErr:
		if err := st.AddUser(body.Name); err != nil {
			writeConsoleJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
			return
		}
	}
	writeConsoleJSON(w, http.StatusOK, map[string]any{"name": acct.Name, "uid": acct.UID, "home": acct.Home})
}

func (c *Console) handleLockAccount(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Name   string `json:"name"`
		Locked bool   `json:"locked"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil || body.Name == "" {
		writeConsoleJSON(w, http.StatusBadRequest, map[string]string{"error": "need a name"})
		return
	}
	if err := c.Endpoint.Accounts.SetLocked(body.Name, body.Locked); err != nil {
		writeConsoleJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	writeConsoleJSON(w, http.StatusOK, map[string]any{"name": body.Name, "locked": body.Locked})
}

func (c *Console) handleUsage(w http.ResponseWriter, r *http.Request) {
	if c.Usage == nil {
		writeConsoleJSON(w, http.StatusOK, map[string]any{"days": []any{}})
		return
	}
	writeConsoleJSON(w, http.StatusOK, map[string]any{"days": c.Usage.Days()})
}

// ConsoleHTTPClient returns an HTTP client for talking to the console from
// a simulated host, trusting the endpoint's CA.
func ConsoleHTTPClient(from *netsim.Host, ep *Endpoint) *http.Client {
	return httpClientFor(from, ep.Trust)
}

func httpClientFor(from *netsim.Host, trust *gsi.TrustStore) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				return from.DialContext(ctx, addr)
			},
			TLSClientConfig: gsi.ClientTLSConfig(nil, trust),
		},
		Timeout: time.Minute,
	}
}
