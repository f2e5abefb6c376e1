package transfer

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/oauth"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/pam"
)

// world wires two GCMU endpoints (separate CAs) plus the hosted service.
type world struct {
	nw     *netsim.Network
	svc    *Service
	epA    *gcmu.Endpoint
	epB    *gcmu.Endpoint
	faultB *dsi.FaultStorage
}

func buildWorld(t *testing.T, cfg Config, withOAuth bool) *world {
	t.Helper()
	return buildWorldFor(t, cfg, withOAuth, "alice")
}

// buildWorldFor is buildWorld with the given local users at both sites, all
// with the site's one password. The service's parked session pairs are
// closed when the test ends.
func buildWorldFor(t *testing.T, cfg Config, withOAuth bool, users ...string) *world {
	t.Helper()
	nw := netsim.NewNetwork()
	mk := func(name, password string, oauthOn bool) (*gcmu.Endpoint, *dsi.FaultStorage) {
		dir := pam.NewLDAPDirectory("dc=" + name)
		accounts := pam.NewAccountDB()
		mem := dsi.NewMemStorage()
		for _, user := range users {
			dir.AddEntry(user, password)
			accounts.Add(pam.Account{Name: user})
			mem.AddUser(user)
		}
		stack := pam.NewStack("myproxy", accounts,
			pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}})
		faulty := dsi.NewFaultStorage(mem)
		ep, err := gcmu.Install(gcmu.Options{
			Name:           name,
			Host:           nw.Host(name),
			Auth:           stack,
			Accounts:       accounts,
			Storage:        faulty,
			WithOAuth:      oauthOn,
			MarkerInterval: 20 * time.Millisecond,
			DataTimeout:    2 * time.Second,
			Obs:            cfg.Obs,
			Streams:        cfg.Streams,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ep.Close)
		return ep, faulty
	}
	epA, _ := mk("siteA", "pwA", withOAuth)
	epB, faultB := mk("siteB", "pwB", withOAuth)

	svc := NewService(nw.Host("globusonline"), cfg)
	t.Cleanup(svc.Close)
	for _, ep := range []*gcmu.Endpoint{epA, epB} {
		rec := Endpoint{
			Name:        ep.Name,
			GridFTPAddr: ep.GridFTPAddr,
			MyProxyAddr: ep.MyProxyAddr,
			OAuthAddr:   ep.OAuthAddr,
			Trust:       ep.Trust,
			CADN:        ep.SigningCA.DN(),
		}
		if err := svc.RegisterEndpoint(rec); err != nil {
			t.Fatal(err)
		}
		if ep.OAuth != nil {
			ep.OAuth.RegisterClient(OAuthClient)
		}
	}
	return &world{nw: nw, svc: svc, epA: epA, epB: epB, faultB: faultB}
}

func (w *world) putSrc(t *testing.T, path string, content []byte) {
	t.Helper()
	f, err := w.epA.Storage.Create("alice", path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dsi.WriteAll(f, content); err != nil {
		t.Fatal(err)
	}
	f.Close()
}

func (w *world) readDst(t *testing.T, path string) []byte {
	t.Helper()
	f, err := w.epB.Storage.Open("alice", path)
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

func activateBoth(t *testing.T, w *world) {
	t.Helper()
	if err := w.svc.ActivateWithPassword("siteA", "alice", "pwA"); err != nil {
		t.Fatal(err)
	}
	if err := w.svc.ActivateWithPassword("siteB", "alice", "pwB"); err != nil {
		t.Fatal(err)
	}
}

func TestHostedCrossCATransfer(t *testing.T) {
	// The flagship scenario: two GCMU endpoints with unrelated CAs, all
	// transfers third-party — only possible because the service applies
	// DCSC automatically (§VIII).
	w := buildWorld(t, Config{}, false)
	activateBoth(t, w)
	payload := pattern(2 << 20)
	w.putSrc(t, "/data.bin", payload)

	task, err := w.svc.Submit("alice", "siteA", "/data.bin", "siteB", "/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	done, err := w.svc.Wait(task.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskSucceeded {
		t.Fatalf("task %s: %s (%s)", done.ID, done.Status, done.Error)
	}
	if done.Parallelism != 2 {
		t.Fatalf("autotune picked %d for a 2 MiB file, want 2", done.Parallelism)
	}
	if !bytes.Equal(w.readDst(t, "/data.bin"), payload) {
		t.Fatal("content mismatch")
	}
}

func TestSubmitRequiresActivation(t *testing.T) {
	w := buildWorld(t, Config{}, false)
	if _, err := w.svc.Submit("alice", "siteA", "/x", "siteB", "/x"); err == nil {
		t.Fatal("submit without activation accepted")
	}
	if err := w.svc.ActivateWithPassword("siteA", "alice", "wrong"); err == nil {
		t.Fatal("activation with wrong password accepted")
	}
	if _, err := w.svc.Submit("alice", "ghost", "/x", "siteB", "/x"); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
}

func TestCheckpointRestartMovesOnlyMissingBytes(t *testing.T) {
	w := buildWorld(t, Config{RetryDelay: 10 * time.Millisecond}, false)
	activateBoth(t, w)
	payload := pattern(4 << 20)
	w.putSrc(t, "/big.bin", payload)
	// Slow the inter-site link so markers fire before the fault.
	w.nw.SetLink("siteA", "siteB", netsim.LinkParams{
		Bandwidth: 30e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22,
	})
	w.faultB.Arm(1 << 20) // fail after ~25% received

	task, err := w.svc.Submit("alice", "siteA", "/big.bin", "siteB", "/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	done, err := w.svc.Wait(task.ID, 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskSucceeded {
		t.Fatalf("task: %s (%s)", done.Status, done.Error)
	}
	if done.Attempts < 2 {
		t.Fatalf("fault did not trigger a retry (attempts=%d)", done.Attempts)
	}
	if w.faultB.Trips() == 0 {
		t.Fatal("fault never fired")
	}
	// With checkpointing, total bytes moved stays well under 2x the file.
	if done.BytesTransferred > int64(len(payload))*3/2 {
		t.Fatalf("checkpointing ineffective: moved %d of %d-byte file", done.BytesTransferred, len(payload))
	}
	if !bytes.Equal(w.readDst(t, "/big.bin"), payload) {
		t.Fatal("content mismatch after recovery")
	}
	t.Logf("attempts=%d moved=%d file=%d", done.Attempts, done.BytesTransferred, len(payload))
}

func TestRetryExhaustionFailsTask(t *testing.T) {
	w := buildWorld(t, Config{RetryLimit: 2, RetryDelay: 5 * time.Millisecond}, false)
	activateBoth(t, w)
	w.putSrc(t, "/f.bin", pattern(1<<20))
	w.faultB.Arm(1000)
	// Re-arm on every attempt by arming a huge number of trips: the
	// FaultStorage is one-shot, so arm again from a watcher.
	go func() {
		for i := 0; i < 10; i++ {
			time.Sleep(20 * time.Millisecond)
			w.faultB.Arm(1000)
		}
	}()
	task, _ := w.svc.Submit("alice", "siteA", "/f.bin", "siteB", "/f.bin")
	done, err := w.svc.Wait(task.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskFailed && done.Status != TaskSucceeded {
		t.Fatalf("unexpected status %s", done.Status)
	}
	// With aggressive re-arming and only 2 attempts, failure is expected;
	// if timing let it through, content must at least be correct.
	if done.Status == TaskFailed && done.Error == "" {
		t.Fatal("failed task carries no error")
	}
}

func TestOAuthActivationHidesPassword(t *testing.T) {
	w := buildWorld(t, Config{}, true)

	// The user's login happens from the user's own host, directly with
	// the site: the service's PasswordsSeen stays zero.
	login := func(base, session string) (string, error) {
		userHTTP := oauth.HTTPClient(w.nw.Host("laptop"), w.epA.Trust)
		return oauth.Login(userHTTP, base, session, "alice", "pwA")
	}
	if err := w.svc.ActivateWithOAuth("siteA", "alice", login); err != nil {
		t.Fatal(err)
	}
	loginB := func(base, session string) (string, error) {
		userHTTP := oauth.HTTPClient(w.nw.Host("laptop"), w.epB.Trust)
		return oauth.Login(userHTTP, base, session, "alice", "pwB")
	}
	if err := w.svc.ActivateWithOAuth("siteB", "alice", loginB); err != nil {
		t.Fatal(err)
	}
	if w.svc.PasswordsSeen != 0 {
		t.Fatalf("OAuth activation leaked %d passwords through the service", w.svc.PasswordsSeen)
	}

	// And the activations actually work for transfers.
	payload := pattern(256 << 10)
	w.putSrc(t, "/oauth.bin", payload)
	task, err := w.svc.Submit("alice", "siteA", "/oauth.bin", "siteB", "/oauth.bin")
	if err != nil {
		t.Fatal(err)
	}
	done, err := w.svc.Wait(task.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskSucceeded {
		t.Fatalf("task: %s (%s)", done.Status, done.Error)
	}
	if !bytes.Equal(w.readDst(t, "/oauth.bin"), payload) {
		t.Fatal("content mismatch")
	}

	// Contrast: password activation increments the counter (Fig 6 risk).
	if err := w.svc.ActivateWithPassword("siteA", "alice", "pwA"); err != nil {
		t.Fatal(err)
	}
	if w.svc.PasswordsSeen != 1 {
		t.Fatalf("PasswordsSeen=%d after password activation", w.svc.PasswordsSeen)
	}
}

func TestRESTAPI(t *testing.T) {
	w := buildWorld(t, Config{}, false)
	rest := &RESTServer{Service: w.svc}
	addr, err := rest.ListenAndServe(w.nw.Host("globusonline"), 8443)
	if err != nil {
		t.Fatal(err)
	}
	defer rest.Close()
	base := "https://" + addr.String()
	hc := oauth.HTTPClient(w.nw.Host("laptop"), nil)

	post := func(path string, body any) (*http.Response, map[string]any) {
		b, _ := json.Marshal(body)
		resp, err := hc.Post(base+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		return resp, out
	}

	// A 1 MiB body is refused before it is decoded, and activates nothing.
	huge := `{"endpoint":"siteA","user":"alice","password":"` + strings.Repeat("x", 1<<20) + `"}`
	resp, err := hc.Post(base+"/activate", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("a 1 MiB activation: status %d, want 413", resp.StatusCode)
	}
	if _, err := w.svc.credentialFor("siteA", "alice"); err == nil {
		t.Fatal("a refused 1 MiB activation activated siteA")
	}

	// Activate both endpoints via the API.
	for _, ep := range []struct{ name, pw string }{{"siteA", "pwA"}, {"siteB", "pwB"}} {
		resp, out := post("/activate", activateRequest{Endpoint: ep.name, User: "alice", Password: ep.pw})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("activate %s: %v %v", ep.name, resp.StatusCode, out)
		}
	}
	// Bad password path.
	if resp, _ := post("/activate", activateRequest{Endpoint: "siteA", User: "alice", Password: "no"}); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("bad activation status %d", resp.StatusCode)
	}

	w.putSrc(t, "/api.bin", pattern(64<<10))
	resp, out := post("/transfer", submitRequest{User: "alice", Src: "siteA", SrcPath: "/api.bin", Dst: "siteB", DstPath: "/api.bin"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, out)
	}
	taskID, _ := out["ID"].(string)
	if taskID == "" {
		t.Fatalf("no task id in %v", out)
	}

	// Poll the task endpoint until terminal.
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get(base + "/task/" + taskID)
		if err != nil {
			t.Fatal(err)
		}
		var task Task
		json.NewDecoder(resp.Body).Decode(&task)
		resp.Body.Close()
		if task.Status == TaskSucceeded {
			// The task carries its owner: the DN of the credential the
			// service activated on the source endpoint.
			cred, err := w.svc.credentialFor("siteA", "alice")
			if err != nil {
				t.Fatal(err)
			}
			if want := string(cred.DN()); want == "" || task.DN != want {
				t.Fatalf("task DN = %q, want the activated credential's %q", task.DN, want)
			}
			break
		}
		if task.Status == TaskFailed {
			t.Fatalf("task failed: %s", task.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("task stuck in %s", task.Status)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Endpoint listing.
	resp2, err := hc.Get(base + "/endpoints")
	if err != nil {
		t.Fatal(err)
	}
	var eps map[string][]string
	json.NewDecoder(resp2.Body).Decode(&eps)
	resp2.Body.Close()
	if len(eps["endpoints"]) != 2 {
		t.Fatalf("endpoints: %v", eps)
	}
	if !strings.Contains(strings.Join(eps["endpoints"], ","), "siteA") {
		t.Fatalf("endpoints: %v", eps)
	}
}

// pattern generates deterministic position-dependent test data.
func pattern(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte((i*7 + i/251) % 256)
	}
	return data
}

// TestWaitSignalsInsteadOfPolling: Wait returns when run closes the task's
// channel, with the task's terminal bookkeeping already done; it times out
// with the live snapshot while the task runs, and keeps answering after the
// task is over.
func TestWaitSignalsInsteadOfPolling(t *testing.T) {
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o}, false)
	activateBoth(t, w)
	w.putSrc(t, "/wait.bin", pattern(256<<10))
	w.nw.SetLink("siteA", "siteB", netsim.LinkParams{Bandwidth: 2e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 20})

	task, err := w.svc.Submit("alice", "siteA", "/wait.bin", "siteB", "/wait.bin")
	if err != nil {
		t.Fatal(err)
	}
	if st, err := w.svc.Wait(task.ID, 10*time.Millisecond); err == nil || st == nil || st.Status != TaskActive {
		t.Fatalf("a 10 ms wait on a ~130 ms task returned %+v, %v; want the ACTIVE snapshot and a timeout", st, err)
	}
	done, err := w.svc.Wait(task.ID, time.Minute)
	returned := time.Now()
	if err != nil || done.Status != TaskSucceeded {
		t.Fatalf("wait: %+v, %v", done, err)
	}
	// Not asserted (scheduling noise); the benchmark's
	// transfer.wait_poll_lag_ms tracks it. The 5 ms poll averaged 2.5 ms.
	t.Logf("Wait returned %v after Task.Finished", returned.Sub(done.Finished))
	if got := o.Metrics.Counter("transfer.tasks_succeeded").Value(); got != 1 {
		t.Errorf("Wait returned before the task's bookkeeping: tasks_succeeded=%d", got)
	}
	if again, err := w.svc.Wait(task.ID, 0); err != nil || again.Status != TaskSucceeded {
		t.Fatalf("wait on a finished task with no time left: %+v, %v", again, err)
	}
	if _, err := w.svc.Wait("task-999999", time.Second); err == nil {
		t.Fatal("wait on an unknown task succeeded")
	}
}
