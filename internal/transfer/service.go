// Package transfer implements a Globus Online-style hosted transfer
// service (§VI of the paper): a third-party mediator that activates GCMU
// endpoints on the user's behalf (username/password via MyProxy, or OAuth
// so the password never reaches the service), runs third-party GridFTP
// transfers between them, auto-tunes transfer options, monitors progress
// via restart markers, and on failure reauthenticates with the stored
// short-term certificate and restarts from the last checkpoint.
package transfer

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/myproxy"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/oauth"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/streamstats"
	"gridftp.dev/instant/internal/pam"
)

// Endpoint is a GridFTP endpoint registered with the service (what a GCMU
// install publishes when the admin opts in, §VI.B).
type Endpoint struct {
	Name        string
	GridFTPAddr string
	MyProxyAddr string
	OAuthAddr   string // optional; enables password-less activation
	// Trust holds the endpoint's CA root(s), published at registration.
	Trust *gsi.TrustStore
	// CADN is the endpoint CA's DN, used to detect cross-CA transfers.
	CADN gsi.DN
}

// activation is a live short-term credential for (endpoint, user).
type activation struct {
	cred    *gsi.Credential
	expires time.Time
}

// TaskStatus is a transfer task's lifecycle state.
type TaskStatus string

// Task states.
const (
	TaskQueued    TaskStatus = "QUEUED"
	TaskActive    TaskStatus = "ACTIVE"
	TaskSucceeded TaskStatus = "SUCCEEDED"
	TaskFailed    TaskStatus = "FAILED"
)

// Task is one submitted transfer.
type Task struct {
	ID   string
	User string
	// DN is the distinguished name of the user's activation credential on
	// the source endpoint, captured at submit: the task's owner as every
	// endpoint sees it, where User is only a per-endpoint local account.
	// GET /task/{id} returns it.
	DN       string
	Src, Dst string // endpoint names
	SrcPath  string
	DstPath  string

	Status   TaskStatus
	Attempts int
	// TotalFiles/CompletedFiles track directory (recursive) transfers;
	// a single-file task has TotalFiles == 1.
	TotalFiles     int
	CompletedFiles int
	// BytesTransferred counts bytes moved across all attempts; with
	// checkpointing, retries move only the missing remainder.
	BytesTransferred int64
	// FileSize is a single-file task's size; 0 for a directory.
	FileSize int64
	// PerfBytes is the in-flight progress of the current attempt as
	// reported by 112 performance markers, summed across stripes and
	// across the task's scheduler workers; PerfMarkers counts how many
	// markers the current attempt has observed. Unlike BytesTransferred
	// (updated at file completion), these move *during* the transfer —
	// they are the service's live progress view.
	PerfBytes   int64
	PerfMarkers int
	Error       string
	Markers     []gridftp.Range
	Started     time.Time
	Finished    time.Time
	// Parallelism is the most streams any of the task's files used.
	Parallelism int
	// Workers is the scheduler fan-out the last attempt used (K control
	// session pairs draining the task's file queue).
	Workers int

	// done is closed by run once the task is terminal and its bookkeeping
	// (metrics, events, span) is complete; Wait blocks on it.
	done chan struct{}
}

// Config tunes the service.
type Config struct {
	// RetryLimit is the number of attempts per task (default 5).
	RetryLimit int
	// RetryDelay between attempts (default 50ms in simulation).
	RetryDelay time.Duration
	// DisableCheckpointing makes retries start from byte 0 — the
	// ablation that quantifies what restart markers buy (E6).
	DisableCheckpointing bool
	// DisableAutotune pins parallelism to 1 instead of sizing it to the
	// file (ablation).
	DisableAutotune bool
	// TaskConcurrency fixes the number of worker session pairs a task
	// fans its file plan out to. 0 (the default) auto-sizes: one pair per
	// 4 MiB of pending bytes, at most 8 and at most one per pending file.
	TaskConcurrency int
	// MaxActiveTransfers bounds the file transfers in flight service-wide
	// (across all tasks and workers), so a large fleet degrades
	// gracefully instead of thundering. A file is in flight from the
	// moment a worker writes its transfer commands until it has read their
	// final replies — a worker queues several small files at the servers at
	// once, and each of them counts. Default 32.
	MaxActiveTransfers int
	// MarkerInterval is the restart (111) and performance (112) marker
	// cadence requested from destination servers (OPTS RETR Markers); source
	// sessions are not asked and keep their server's own. Zero means the
	// default, 25ms.
	MarkerInterval time.Duration
	// Obs receives structured logs, metrics, and per-task span trees
	// (activation → control → data, plus per-worker spans when a task
	// fans out). Nil disables observability.
	Obs *obs.Obs
	// Streams is the stream-telemetry registry the scheduler consults for
	// per-attempt wire evidence (retransmits, inter-stream imbalance,
	// stall aborts). The scheduler labels every worker session pair with
	// the task id via SITE TASK so endpoints sharing this registry — the
	// in-process simulation shape — publish their data streams under it.
	// Nil disables wire-evidence records.
	Streams *streamstats.Registry
}

// Service is the hosted transfer service.
type Service struct {
	host *netsim.Host
	cfg  Config
	log  *slog.Logger

	mu          sync.Mutex
	endpoints   map[string]*Endpoint
	activations map[string]*activation // key: endpoint + "\x00" + user
	tasks       map[string]*Task
	nextTask    int
	// parked holds the warm session pairs (warm.go), one per key; closed
	// stops parking.
	parked map[pairKey]*sessionPair
	closed bool

	// sem is the global MaxActiveTransfers admission semaphore: one slot
	// per file begun and not yet completed, across all tasks and workers.
	sem chan struct{}

	// PasswordsSeen counts secrets that flowed through the service —
	// the quantity OAuth activation drives to zero (§VI, Fig 7).
	PasswordsSeen int
}

// NewService creates a transfer service living on the given host.
func NewService(host *netsim.Host, cfg Config) *Service {
	if cfg.RetryLimit == 0 {
		cfg.RetryLimit = 5
	}
	if cfg.RetryDelay == 0 {
		cfg.RetryDelay = 50 * time.Millisecond
	}
	if cfg.MaxActiveTransfers <= 0 {
		cfg.MaxActiveTransfers = 32
	}
	if cfg.MarkerInterval <= 0 {
		cfg.MarkerInterval = 25 * time.Millisecond
	}
	return &Service{
		host:        host,
		cfg:         cfg,
		log:         cfg.Obs.Logger().With("component", "transfer-service"),
		endpoints:   make(map[string]*Endpoint),
		activations: make(map[string]*activation),
		tasks:       make(map[string]*Task),
		parked:      make(map[pairKey]*sessionPair),
		sem:         make(chan struct{}, cfg.MaxActiveTransfers),
	}
}

// RegisterEndpoint publishes an endpoint to the service. Registering a name
// again replaces the record — address, trust — so the session pairs parked
// to or from that name are dropped: they are connected to what the old
// record said.
func (s *Service) RegisterEndpoint(ep Endpoint) error {
	if ep.Name == "" || ep.GridFTPAddr == "" || ep.Trust == nil {
		return errors.New("transfer: endpoint needs name, gridftp address, and trust")
	}
	s.mu.Lock()
	s.endpoints[ep.Name] = &ep
	s.mu.Unlock()
	s.dropParked(func(p *sessionPair) bool { return p.key.src == ep.Name || p.key.dst == ep.Name })
	return nil
}

// Endpoints lists registered endpoint names.
func (s *Service) Endpoints() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.endpoints))
	for name := range s.endpoints {
		out = append(out, name)
	}
	return out
}

func (s *Service) endpoint(name string) (*Endpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ep, ok := s.endpoints[name]
	if !ok {
		return nil, fmt.Errorf("transfer: unknown endpoint %q", name)
	}
	return ep, nil
}

func actKey(endpoint, user string) string { return endpoint + "\x00" + user }

// ActivateWithPassword activates an endpoint with the user's site
// username/password: the service passes them to the endpoint's MyProxy CA
// and stores the returned short-term certificate (Fig 6). The password
// does flow through the service — "Globus Online does not store the
// password", and neither do we, but it is *seen*, which PasswordsSeen
// records.
func (s *Service) ActivateWithPassword(endpointName, user, password string) error {
	ep, err := s.endpoint(endpointName)
	if err != nil {
		return err
	}
	if ep.MyProxyAddr == "" {
		return fmt.Errorf("transfer: endpoint %q has no MyProxy service", endpointName)
	}
	s.mu.Lock()
	s.PasswordsSeen++
	s.mu.Unlock()
	// The activation is its own distributed trace: the endpoint's MyProxy
	// server joins it via the traceparent riding on the LOGON request.
	span := s.cfg.Obs.Tracer().StartSpan("activation")
	span.SetAttr("endpoint", endpointName)
	span.SetAttr("user", user)
	defer span.End()
	cred, err := myproxy.Logon(s.host, ep.MyProxyAddr, user, pam.PasswordConv(password),
		myproxy.LogonOptions{Trust: ep.Trust, Trace: span.Context()})
	if err != nil {
		span.SetError(err)
		return fmt.Errorf("transfer: activation of %q failed: %w", endpointName, err)
	}
	s.storeActivation(endpointName, user, cred)
	return nil
}

// UserLoginFunc represents the user's own browser completing the site
// login during OAuth activation: it receives the OAuth base URL and
// session id, performs the login directly with the site, and returns the
// authorization code. The service never handles the password.
type UserLoginFunc func(oauthBaseURL, session string) (code string, err error)

// OAuthClientID is the client identity GCMU OAuth servers know us by.
var OAuthClient = oauth.Client{ID: "globusonline", Secret: "globusonline-secret"}

// ActivateWithOAuth activates an endpoint via its OAuth server: the user
// logs in at the site (login callback), the service exchanges the
// resulting code for a short-term certificate (Fig 7).
func (s *Service) ActivateWithOAuth(endpointName, user string, login UserLoginFunc) error {
	ep, err := s.endpoint(endpointName)
	if err != nil {
		return err
	}
	if ep.OAuthAddr == "" {
		return fmt.Errorf("transfer: endpoint %q has no OAuth service", endpointName)
	}
	base := "https://" + ep.OAuthAddr
	hc := oauth.HTTPClient(s.host, ep.Trust)
	session, err := oauth.Authorize(hc, base, OAuthClient.ID, "activate-"+endpointName)
	if err != nil {
		return err
	}
	code, err := login(base, session)
	if err != nil {
		return fmt.Errorf("transfer: user login failed: %w", err)
	}
	cred, err := oauth.ExchangeCode(hc, base, OAuthClient, code)
	if err != nil {
		return err
	}
	if cred.DN().LastCN() != user {
		return fmt.Errorf("transfer: OAuth credential is for %q, not %q", cred.DN().LastCN(), user)
	}
	s.storeActivation(endpointName, user, cred)
	return nil
}

// storeActivation records the new short-term certificate and drops the
// session pairs parked for that (endpoint, user): they authenticated with the
// one it replaces, could never be adopted again, and would hold their server
// sessions until the idle timer (W4 in warm.go).
func (s *Service) storeActivation(endpointName, user string, cred *gsi.Credential) {
	s.mu.Lock()
	s.activations[actKey(endpointName, user)] = &activation{
		cred:    cred,
		expires: cred.Cert.NotAfter,
	}
	s.mu.Unlock()
	s.dropParked(func(p *sessionPair) bool {
		return p.key.user == user && (p.key.src == endpointName || p.key.dst == endpointName)
	})
}

// Activated reports whether (endpoint, user) holds a live activation.
func (s *Service) Activated(endpointName, user string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.activations[actKey(endpointName, user)]
	return ok && time.Now().Before(a.expires)
}

func (s *Service) credentialFor(endpointName, user string) (*gsi.Credential, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.activations[actKey(endpointName, user)]
	if !ok || time.Now().After(a.expires) {
		return nil, fmt.Errorf("transfer: endpoint %q not activated for %q", endpointName, user)
	}
	return a.cred, nil
}

// Submit queues a transfer task and starts processing it asynchronously.
func (s *Service) Submit(user, srcEndpoint, srcPath, dstEndpoint, dstPath string) (*Task, error) {
	if _, err := s.endpoint(srcEndpoint); err != nil {
		return nil, err
	}
	if _, err := s.endpoint(dstEndpoint); err != nil {
		return nil, err
	}
	if !s.Activated(srcEndpoint, user) || !s.Activated(dstEndpoint, user) {
		return nil, errors.New("transfer: both endpoints must be activated first")
	}
	// The owner is the DN of the activation credential just verified
	// above; endpoint-local usernames are not globally unique.
	var dn string
	if cred, err := s.credentialFor(srcEndpoint, user); err == nil {
		dn = string(cred.DN())
	}
	s.mu.Lock()
	s.nextTask++
	task := &Task{
		ID:      fmt.Sprintf("task-%06d", s.nextTask),
		User:    user,
		DN:      dn,
		Src:     srcEndpoint,
		SrcPath: srcPath,
		Dst:     dstEndpoint,
		DstPath: dstPath,
		Status:  TaskQueued,
		Started: time.Now(),
		done:    make(chan struct{}),
	}
	s.tasks[task.ID] = task
	snapshot := *task
	s.mu.Unlock()
	go s.run(task)
	// Return a snapshot: the live task is mutated concurrently by run().
	return &snapshot, nil
}

// Wait blocks until the task reaches a terminal state (or the timeout).
func (s *Service) Wait(taskID string, timeout time.Duration) (*Task, error) {
	t, err := s.TaskStatus(taskID)
	if err != nil {
		return nil, err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case <-t.done:
	case <-timer.C:
	}
	// Whichever fired, the status decides: the task can finish as the
	// timer does.
	if t, err = s.TaskStatus(taskID); err != nil {
		return nil, err
	}
	if t.Status == TaskSucceeded || t.Status == TaskFailed {
		return t, nil
	}
	return t, fmt.Errorf("transfer: task %s still %s after %v", taskID, t.Status, timeout)
}

// TaskStatus returns a snapshot of the task.
func (s *Service) TaskStatus(taskID string) (*Task, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tasks[taskID]
	if !ok {
		return nil, fmt.Errorf("transfer: unknown task %q", taskID)
	}
	cp := *t
	cp.Markers = append([]gridftp.Range(nil), t.Markers...)
	return &cp, nil
}

func (s *Service) update(task *Task, f func(*Task)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f(task)
}

// run drives one task to completion, retrying from restart markers.
func (s *Service) run(task *Task) {
	defer close(task.done)
	s.update(task, func(t *Task) { t.Status = TaskActive })
	reg := s.cfg.Obs.Registry()
	reg.Counter("transfer.tasks_total").Inc()
	span := s.cfg.Obs.Tracer().StartSpan("task")
	span.SetAttr("task", task.ID)
	span.SetAttr("src", task.Src)
	span.SetAttr("dst", task.Dst)
	log := s.log.With("task", task.ID, "src", task.Src, "dst", task.Dst)
	log.Info("task.start", "user", task.User, "trace", span.TraceID, "span", span.SpanID)
	var plan *transferPlan
	var lastErr error
	for attempt := 1; attempt <= s.cfg.RetryLimit; attempt++ {
		s.update(task, func(t *Task) { t.Attempts = attempt })
		// Only the first attempt may run on a warm pair, and only when a
		// cold attempt is left to follow it (W2, W3 in warm.go).
		mayAdopt := attempt == 1 && s.cfg.RetryLimit > 1
		adopted, err := s.attempt(task, &plan, span, mayAdopt)
		s.recordWireEvidence(task, attempt, span.TraceID.String())
		if err == nil {
			s.update(task, func(t *Task) {
				t.Status = TaskSucceeded
				t.Finished = time.Now()
				t.Error = ""
			})
			span.SetAttr("attempts", attempt)
			span.End()
			reg.Counter("transfer.tasks_succeeded").Inc()
			s.observeTask(time.Since(task.Started), true)
			log.Info("task.complete", "status", TaskSucceeded, "attempts", attempt,
				"bytes", task.BytesTransferred,
				"dur", time.Since(task.Started).Round(time.Microsecond),
				"trace", span.TraceID.String())
			return
		}
		lastErr = err
		reg.Counter("transfer.attempt_failures").Inc()
		log.Warn("transfer.retry", "attempt", attempt, "err", err, "trace", span.TraceID.String())
		if s.cfg.DisableCheckpointing && plan != nil {
			plan.clearMarkers()
		}
		// Sleep only between attempts: a permanently failing task should
		// report failure immediately after its last attempt. And not after
		// an attempt on an adopted pair: what failed may be only the pair,
		// which is closed, so the cold attempt follows at once (W3).
		if attempt < s.cfg.RetryLimit && !adopted {
			time.Sleep(s.cfg.RetryDelay)
		}
	}
	s.update(task, func(t *Task) {
		t.Status = TaskFailed
		t.Finished = time.Now()
		t.Error = lastErr.Error()
	})
	span.SetError(lastErr)
	span.End()
	reg.Counter("transfer.tasks_failed").Inc()
	s.observeTask(time.Since(task.Started), false)
	log.Warn("task.complete", "status", TaskFailed, "err", lastErr, "trace", span.TraceID.String())
}

// recordWireEvidence closes out one attempt against the stream-telemetry
// plane: it aggregates every tracked transfer labeled with the task id
// (both the "<task>" destination and "<task>-src" source legs, installed
// on the endpoints via SITE TASK) and logs the attempt's retransmit
// total, worst inter-stream imbalance, and stall-abort count as a
// transfer.wire record. This is the wire-level
// counterpart of the 112 PERF progress view: PERF says how far the
// attempt got, the wire evidence says why it went no faster.
func (s *Service) recordWireEvidence(task *Task, attempt int, traceID string) {
	ws, ok := s.cfg.Streams.WireSummary(task.ID)
	if !ok {
		return
	}
	if ws.Retransmits > 0 {
		s.cfg.Obs.Registry().Counter("transfer.wire_retransmits").Add(ws.Retransmits)
	}
	if ws.Stalls > 0 {
		s.cfg.Obs.Registry().Counter("transfer.stall_aborts").Add(int64(ws.Stalls))
	}
	s.log.Info("transfer.wire", "task", task.ID, "attempt", attempt,
		"transfers", ws.Transfers, "retransmits", ws.Retransmits,
		"imbalance", ws.Imbalance, "stalls", ws.Stalls, "trace", traceID)
}

// observeTask records the task duration on the aggregate histogram and on
// the outcome-labeled series.
func (s *Service) observeTask(dur time.Duration, ok bool) {
	reg := s.cfg.Obs.Registry()
	reg.Histogram("transfer.task_seconds", obs.DefaultDurationBuckets).Observe(dur.Seconds())
	outcome := "outcome=ok"
	if !ok {
		outcome = "outcome=err"
	}
	reg.Histogram(obs.Name("transfer.task_seconds", outcome), obs.DefaultDurationBuckets).Observe(dur.Seconds())
}

// attempt advances the plan as far as it can over a primary session pair:
// the pair the previous task between these endpoints parked, when mayAdopt
// and there is one (warm.go), else a pair dialled now — reauthenticating to
// both endpoints with the stored short-term certificates (§VI.B). The first
// attempt has the pair's first flight start the walk of the source and builds
// the plan from it (single file, or a recursive directory walk that captures
// sizes, so no per-file SIZE commands are ever issued); every attempt then
// fans the pending files out across the scheduler's worker session pairs,
// each file resuming from its saved restart markers. A primary pair whose
// attempt succeeded is parked; any failure closes it (W1). adopted reports
// that the attempt ran on a parked pair.
func (s *Service) attempt(task *Task, planp **transferPlan, taskSpan *obs.Span, mayAdopt bool) (adopted bool, err error) {
	srcEP, err := s.endpoint(task.Src)
	if err != nil {
		return false, err
	}
	dstEP, err := s.endpoint(task.Dst)
	if err != nil {
		return false, err
	}

	// Activation phase: resolve the stored short-term certificates. They
	// are half of what a parked pair is keyed by, and what a dialled pair's
	// per-attempt proxies derive from.
	actSpan := taskSpan.Child("activate")
	srcCred, err := s.credentialFor(task.Src, task.User)
	if err != nil {
		actSpan.SetError(err)
		actSpan.End()
		return false, err
	}
	dstCred, err := s.credentialFor(task.Dst, task.User)
	if err != nil {
		actSpan.SetError(err)
		actSpan.End()
		return false, err
	}
	actSpan.End()

	// Control phase: the primary session pair. Adopted, it costs one flight
	// — join the task trace and take the task label on both sessions, and
	// learn the plan on the source — and a pair that fails it is closed and
	// replaced within the same attempt. Dialled, it authenticates, delegates,
	// and in the same first flight also sets the marker cadence, (cross-CA,
	// §V) installs the source credential on the destination via DCSC once for
	// the whole session instead of once per file, and asks the destination
	// for the address the pair's wiring will need (PASV).
	ctlSpan := taskSpan.Child("control")
	crossCA := task.crossCA(srcEP, dstEP)
	key := pairKey{user: task.User, src: task.Src, dst: task.Dst, srcCred: srcCred, dstCred: dstCred, dcsc: crossCA}
	// The first attempt has no plan yet, and learns it in the pair's first
	// flight, adopted or dialled.
	planPath := ""
	if *planp == nil {
		planPath = task.SrcPath
	}
	var primary *sessionPair
	if mayAdopt {
		if primary = s.adopt(key); primary != nil {
			if err := primary.relabel(taskSpan.Context(), task.ID, planPath); err != nil {
				s.log.Warn("parked session pair failed its adoption flight; dialling", "task", task.ID, "err", err)
				primary.Close()
				primary = nil
			}
		}
	}
	adopted = primary != nil
	if primary == nil {
		if primary, err = s.dialPrimary(srcEP, dstEP, key, taskSpan.Context(), task.ID, planPath); err != nil {
			ctlSpan.SetError(err)
			ctlSpan.End()
			return false, err
		}
	}
	defer func() {
		if err != nil {
			primary.Close()
		} else {
			s.park(primary)
		}
	}()
	// The pair's session-command flight doubles as the control-channel RTT
	// estimate; it sizes the workers' stream share.
	rtt := primary.rtt
	ctlSpan.SetAttr("rtt_ms", float64(rtt)/float64(time.Millisecond))
	ctlSpan.SetAttr("warm", adopted)
	ctlSpan.End()

	s.update(task, func(t *Task) { t.PerfBytes = 0; t.PerfMarkers = 0 })

	if *planp == nil {
		plan, err := buildPlan(task, primary.walk)
		primary.walk = nil
		if err != nil {
			return adopted, err
		}
		*planp = plan
		s.update(task, func(t *Task) { t.TotalFiles = len(plan.files) })
	}
	plan := *planp

	pending := plan.pending()
	if len(pending) == 0 {
		return adopted, nil
	}
	var pendingBytes int64
	for _, i := range pending {
		pendingBytes += plan.files[i].size
	}
	workers := s.workerCount(len(pending), pendingBytes)
	s.update(task, func(t *Task) { t.Workers = workers })
	taskSpan.SetAttr("workers", workers)
	s.cfg.Obs.Registry().Gauge("transfer.task_workers").Max(int64(workers))
	return adopted, s.schedule(task, plan, primary, srcEP, dstEP, taskSpan, pending, workers, streamShare(s.cfg, rtt, workers))
}

// dialPrimary dials a task's primary pair with proxies derived now from the
// activation credentials in key, and gives it the key it can be parked under.
func (s *Service) dialPrimary(srcEP, dstEP *Endpoint, key pairKey, sc obs.SpanContext, taskLabel, planPath string) (*sessionPair, error) {
	srcProxy, err := gsi.NewProxy(key.srcCred, gsi.ProxyOptions{})
	if err != nil {
		return nil, err
	}
	dstProxy, err := gsi.NewProxy(key.dstCred, gsi.ProxyOptions{})
	if err != nil {
		return nil, err
	}
	pair, err := s.dialPair(srcEP, dstEP, srcProxy, dstProxy, sc, key.dcsc, taskLabel, planPath)
	if err != nil {
		return nil, err
	}
	pair.key = key
	return pair, nil
}

// crossCA reports whether the two endpoints live in different trust
// domains (the destination does not trust the source's CA).
func (t *Task) crossCA(src, dst *Endpoint) bool {
	if src.CADN == "" || dst.CADN == "" {
		return false
	}
	if src.CADN == dst.CADN {
		return false
	}
	for _, dn := range dst.Trust.CAs() {
		if dn == src.CADN {
			return false
		}
	}
	return true
}
