// Package oauth implements the OAuth certificate-issuance service the
// paper pairs with GCMU (§VI, Fig 7, [27]): users enter their site
// password only on a web page *run by the site*; the third-party agent
// (Globus Online) receives an authorization code and exchanges it — plus a
// locally generated public key — for a short-lived certificate. The
// password therefore never flows through the third party.
//
// Endpoints (JSON over HTTPS):
//
//	GET  /authorize?client_id=..&state=..   -> {"session": id}
//	POST /login    {session,username,password} -> {"code": c, "state": s}
//	POST /token    {client_id,client_secret,code,pubkey} -> {"cert": pem-b64}
package oauth

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"gridftp.dev/instant/internal/ca"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
)

// DefaultPort is the port the GCMU OAuth server listens on.
const DefaultPort = 443

// Client is a registered OAuth client (e.g. the Globus Online service).
type Client struct {
	ID     string
	Secret string
}

// Server is the site-run OAuth certificate issuer.
type Server struct {
	// OnlineCA issues certificates after a successful login.
	OnlineCA *ca.OnlineCA
	// HostCred is the HTTPS identity.
	HostCred *gsi.Credential

	mu       sync.Mutex
	clients  map[string]Client
	sessions map[string]*authSession
	codes    map[string]*authGrant

	listener net.Listener
	httpSrv  *http.Server
}

type authSession struct {
	clientID string
	state    string
	created  time.Time
}

type authGrant struct {
	clientID string
	username string
	created  time.Time
}

// NewServer creates an OAuth server.
func NewServer(online *ca.OnlineCA, hostCred *gsi.Credential) *Server {
	return &Server{
		OnlineCA: online,
		HostCred: hostCred,
		clients:  make(map[string]Client),
		sessions: make(map[string]*authSession),
		codes:    make(map[string]*authGrant),
	}
}

// RegisterClient provisions a client id/secret pair.
func (s *Server) RegisterClient(c Client) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clients[c.ID] = c
}

func token() string {
	var b [16]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// ListenAndServe starts the HTTPS endpoint on the simulated host.
func (s *Server) ListenAndServe(host *netsim.Host, port int) (net.Addr, error) {
	l, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	s.listener = l
	mux := http.NewServeMux()
	mux.HandleFunc("GET /authorize", s.handleAuthorize)
	mux.HandleFunc("POST /login", s.handleLogin)
	mux.HandleFunc("POST /token", s.handleToken)
	s.httpSrv = gsi.ServeHTTPS(l, s.HostCred, mux)
	return l.Addr(), nil
}

// Close shuts the server down.
func (s *Server) Close() error {
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) handleAuthorize(w http.ResponseWriter, r *http.Request) {
	clientID := r.URL.Query().Get("client_id")
	state := r.URL.Query().Get("state")
	s.mu.Lock()
	_, ok := s.clients[clientID]
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "unknown client_id"})
		return
	}
	id := token()
	s.mu.Lock()
	s.sessions[id] = &authSession{clientID: clientID, state: state, created: time.Now()}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"session": id})
}

type loginRequest struct {
	Session  string `json:"session"`
	Username string `json:"username"`
	Password string `json:"password"`
}

func (s *Server) handleLogin(w http.ResponseWriter, r *http.Request) {
	var req loginRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request"})
		return
	}
	s.mu.Lock()
	sess, ok := s.sessions[req.Session]
	if ok {
		delete(s.sessions, req.Session)
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "unknown session"})
		return
	}
	acct, err := s.OnlineCA.Auth.Authenticate(req.Username, pam.PasswordConv(req.Password))
	if err != nil {
		writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "authentication failed"})
		return
	}
	code := token()
	s.mu.Lock()
	s.codes[code] = &authGrant{clientID: sess.clientID, username: acct.Name, created: time.Now()}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]string{"code": code, "state": sess.state})
}

type tokenRequest struct {
	ClientID     string `json:"client_id"`
	ClientSecret string `json:"client_secret"`
	Code         string `json:"code"`
	PubKey       string `json:"pubkey"` // base64 PKIX DER
}

func (s *Server) handleToken(w http.ResponseWriter, r *http.Request) {
	var req tokenRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad request"})
		return
	}
	s.mu.Lock()
	client, cok := s.clients[req.ClientID]
	grant, gok := s.codes[req.Code]
	if gok {
		delete(s.codes, req.Code) // single-use
	}
	s.mu.Unlock()
	if !cok || client.Secret != req.ClientSecret {
		writeJSON(w, http.StatusUnauthorized, map[string]string{"error": "bad client credentials"})
		return
	}
	if !gok || grant.clientID != req.ClientID {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "invalid code"})
		return
	}
	keyDER, err := base64.StdEncoding.DecodeString(req.PubKey)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad pubkey encoding"})
		return
	}
	pub, err := x509.ParsePKIXPublicKey(keyDER)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "unparsable pubkey"})
		return
	}
	cred, err := s.OnlineCA.IssuePreauthed(grant.username, pub, 0)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	pemBundle, err := cred.EncodePEM()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, map[string]string{"error": "encoding failure"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"cert": base64.StdEncoding.EncodeToString(pemBundle)})
}

// HTTPClient returns an *http.Client that dials through the simulated
// network from the given host and accepts the site's TLS identity per
// trust (nil = accept on first use).
func HTTPClient(host *netsim.Host, trust *gsi.TrustStore) *http.Client {
	tlsCfg := &tls.Config{InsecureSkipVerify: true, MinVersion: tls.VersionTLS12}
	if trust != nil {
		tlsCfg = gsi.ClientTLSConfig(nil, trust)
	}
	return &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				return host.DialContext(ctx, addr)
			},
			TLSClientConfig: tlsCfg,
		},
		Timeout: time.Minute,
	}
}

// --- Third-party client helpers (used by the Globus Online service) ---

// Authorize starts an authorization session, returning the session id the
// user's browser is redirected with.
func Authorize(hc *http.Client, baseURL, clientID, state string) (string, error) {
	resp, err := hc.Get(fmt.Sprintf("%s/authorize?client_id=%s&state=%s", baseURL, clientID, state))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("oauth: authorize: %s", out["error"])
	}
	return out["session"], nil
}

// Login is the *user's* direct interaction with the site's web page: the
// password travels only here, never through the third party.
func Login(hc *http.Client, baseURL, session, username, password string) (code string, err error) {
	body, _ := json.Marshal(loginRequest{Session: session, Username: username, Password: password})
	resp, err := hc.Post(baseURL+"/login", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("oauth: login: %s", out["error"])
	}
	return out["code"], nil
}

// ExchangeCode redeems an authorization code for a short-lived credential;
// the private key is generated here, at the caller.
func ExchangeCode(hc *http.Client, baseURL string, client Client, code string) (*gsi.Credential, error) {
	cred, pub, err := freshKeypair()
	if err != nil {
		return nil, err
	}
	body, _ := json.Marshal(tokenRequest{
		ClientID: client.ID, ClientSecret: client.Secret, Code: code,
		PubKey: base64.StdEncoding.EncodeToString(pub),
	})
	resp, err := hc.Post(baseURL+"/token", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("oauth: token: %s", out["error"])
	}
	pemBundle, err := base64.StdEncoding.DecodeString(out["cert"])
	if err != nil {
		return nil, err
	}
	issued, err := gsi.DecodePEM(pemBundle)
	if err != nil {
		return nil, err
	}
	issued.Key = cred.Key
	return issued, nil
}

func freshKeypair() (*gsi.Credential, []byte, error) {
	tmp, err := gsi.SelfSignedCredential("/CN=keyholder", time.Hour)
	if err != nil {
		return nil, nil, err
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&tmp.Key.PublicKey)
	if err != nil {
		return nil, nil, err
	}
	return tmp, pubDER, nil
}
