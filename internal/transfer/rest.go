package transfer

import (
	"encoding/json"
	"net"
	"net/http"
	"time"

	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
)

// The paper (§VI.A) lists three Globus Online interfaces: a web GUI, an
// SSH command line, and "a REST API [that] facilitates integration for
// system builders". This file provides the REST API; the CLI lives in
// cmd/transfer-service.

// RESTServer exposes the service over HTTPS.
type RESTServer struct {
	Service *Service
	httpSrv *http.Server
}

// activateRequest is the POST /activate body.
type activateRequest struct {
	Endpoint string `json:"endpoint"`
	User     string `json:"user"`
	Password string `json:"password"`
}

// submitRequest is the POST /transfer body.
type submitRequest struct {
	User    string `json:"user"`
	Src     string `json:"src"`
	SrcPath string `json:"src_path"`
	Dst     string `json:"dst"`
	DstPath string `json:"dst_path"`
}

// ListenAndServe starts the API on the service's host.
func (r *RESTServer) ListenAndServe(host *netsim.Host, port int) (net.Addr, error) {
	cred, err := gsi.SelfSignedCredential("/O=Globus Online/CN=transfer.api", 365*24*time.Hour)
	if err != nil {
		return nil, err
	}
	l, err := host.Listen(port)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /activate", r.handleActivate)
	mux.HandleFunc("POST /transfer", r.handleSubmit)
	mux.HandleFunc("GET /task/{id}", r.handleTask)
	mux.HandleFunc("GET /endpoints", r.handleEndpoints)
	r.httpSrv = gsi.ServeHTTPS(l, cred, mux)
	return l.Addr(), nil
}

// Close stops the API server.
func (r *RESTServer) Close() error {
	if r.httpSrv != nil {
		return r.httpSrv.Close()
	}
	return nil
}

func respond(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (r *RESTServer) handleActivate(w http.ResponseWriter, req *http.Request) {
	var body activateRequest
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		respond(w, http.StatusBadRequest, map[string]string{"error": "bad request"})
		return
	}
	if err := r.Service.ActivateWithPassword(body.Endpoint, body.User, body.Password); err != nil {
		respond(w, http.StatusUnauthorized, map[string]string{"error": err.Error()})
		return
	}
	respond(w, http.StatusOK, map[string]string{"status": "activated"})
}

func (r *RESTServer) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var body submitRequest
	if err := json.NewDecoder(req.Body).Decode(&body); err != nil {
		respond(w, http.StatusBadRequest, map[string]string{"error": "bad request"})
		return
	}
	task, err := r.Service.Submit(body.User, body.Src, body.SrcPath, body.Dst, body.DstPath)
	if err != nil {
		respond(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	respond(w, http.StatusAccepted, task)
}

func (r *RESTServer) handleTask(w http.ResponseWriter, req *http.Request) {
	task, err := r.Service.TaskStatus(req.PathValue("id"))
	if err != nil {
		respond(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	respond(w, http.StatusOK, task)
}

func (r *RESTServer) handleEndpoints(w http.ResponseWriter, req *http.Request) {
	respond(w, http.StatusOK, map[string][]string{"endpoints": r.Service.Endpoints()})
}
