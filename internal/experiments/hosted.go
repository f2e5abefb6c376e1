package experiments

import (
	"fmt"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/oauth"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/transfer"
)

// hostedWorld wires two GCMU endpoints plus the Globus Online-style
// service on its own host.
type hostedWorld struct {
	nw     *netsim.Network
	svc    *transfer.Service
	epA    *gcmu.Endpoint
	epB    *gcmu.Endpoint
	faultB *dsi.FaultStorage
}

func buildHostedWorld(cfg transfer.Config, withOAuth bool, markerInterval time.Duration) (*hostedWorld, error) {
	nw := netsim.NewNetwork()
	mk := func(name, password string) (*gcmu.Endpoint, *dsi.FaultStorage, error) {
		stack, accounts := newPAMStack(name, "alice", password)
		mem := dsi.NewMemStorage()
		mem.AddUser("alice")
		faulty := dsi.NewFaultStorage(mem)
		ep, err := gcmu.Install(gcmu.Options{
			Name:           name,
			Host:           nw.Host(name),
			Auth:           stack,
			Accounts:       accounts,
			Storage:        faulty,
			WithOAuth:      withOAuth,
			MarkerInterval: markerInterval,
		})
		if err != nil {
			return nil, nil, err
		}
		return ep, faulty, nil
	}
	epA, _, err := mk("siteA", "pwA")
	if err != nil {
		return nil, err
	}
	epB, faultB, err := mk("siteB", "pwB")
	if err != nil {
		return nil, err
	}
	svc := transfer.NewService(nw.Host("globusonline"), cfg)
	for _, ep := range []*gcmu.Endpoint{epA, epB} {
		err := svc.RegisterEndpoint(transfer.Endpoint{
			Name:        ep.Name,
			GridFTPAddr: ep.GridFTPAddr,
			MyProxyAddr: ep.MyProxyAddr,
			OAuthAddr:   ep.OAuthAddr,
			Trust:       ep.Trust,
			CADN:        ep.SigningCA.DN(),
		})
		if err != nil {
			return nil, err
		}
		if ep.OAuth != nil {
			ep.OAuth.RegisterClient(transfer.OAuthClient)
		}
	}
	return &hostedWorld{nw: nw, svc: svc, epA: epA, epB: epB, faultB: faultB}, nil
}

func (w *hostedWorld) close() {
	w.svc.Close()
	w.epA.Close()
	w.epB.Close()
}

func (w *hostedWorld) putSrc(path string, content []byte) error {
	f, err := w.epA.Storage.Create("alice", path)
	if err != nil {
		return err
	}
	defer f.Close()
	return dsi.WriteAll(f, content)
}

func (w *hostedWorld) activate() error {
	if err := w.svc.ActivateWithPassword("siteA", "alice", "pwA"); err != nil {
		return err
	}
	return w.svc.ActivateWithPassword("siteB", "alice", "pwB")
}

// E6Config parameterizes the checkpoint-restart experiment.
type E6Config struct {
	FileBytes int
	// FaultFraction is where (as a fraction of the file) the receive-side
	// fault fires.
	FaultFraction float64
	// Link slows the inter-site path so markers accumulate pre-fault.
	Link netsim.LinkParams
}

// DefaultE6 injects the fault at 60% of an 8 MiB file.
func DefaultE6() E6Config {
	return E6Config{
		FileBytes:     8 << 20,
		FaultFraction: 0.6,
		Link:          netsim.LinkParams{Bandwidth: 30e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22},
	}
}

// RunE6Checkpoint reproduces §VI.B's recovery story: "If any failure
// occurs during the transfer, Globus Online will use the short-term
// certificate to reauthenticate with the endpoints on the user's behalf
// and restart the transfer from the last checkpoint." The ablation row
// disables checkpointing, quantifying exactly what restart markers save.
func RunE6Checkpoint(cfg E6Config) (*Table, error) {
	t := &Table{
		ID:      "E6",
		Title:   "Fault-injected hosted transfer: checkpoint restart vs full retransfer",
		Paper:   `§VI.B: on failure the service reauthenticates with the short-term certificate and "restart[s] the transfer from the last checkpoint"`,
		Columns: []string{"checkpointing", "attempts", "file", "bytes moved", "overhead"},
	}
	for _, checkpoints := range []bool{true, false} {
		task, err := runE6Once(cfg, checkpoints)
		if err != nil {
			return nil, err
		}
		label := "restart markers"
		if !checkpoints {
			label = "disabled (full retransfer)"
		}
		overhead := float64(task.BytesTransferred)/float64(cfg.FileBytes) - 1
		t.AddRow(label,
			fmt.Sprintf("%d", task.Attempts),
			fmt.Sprintf("%d MiB", cfg.FileBytes>>20),
			fmt.Sprintf("%d", task.BytesTransferred),
			fmt.Sprintf("+%.0f%%", overhead*100))
	}
	t.Note("receive-side fault injected at %.0f%% of the file on the first attempt; retry succeeds", cfg.FaultFraction*100)
	return t, nil
}

func runE6Once(cfg E6Config, checkpoints bool) (*transfer.Task, error) {
	w, err := buildHostedWorld(transfer.Config{
		RetryDelay:           10 * time.Millisecond,
		DisableCheckpointing: !checkpoints,
	}, false, 15*time.Millisecond)
	if err != nil {
		return nil, err
	}
	defer w.close()
	w.nw.SetLink("siteA", "siteB", cfg.Link)
	if err := w.activate(); err != nil {
		return nil, err
	}
	if err := w.putSrc("/ckpt.bin", pattern(cfg.FileBytes)); err != nil {
		return nil, err
	}
	w.faultB.Arm(int64(float64(cfg.FileBytes) * cfg.FaultFraction))
	task, err := w.svc.Submit("alice", "siteA", "/ckpt.bin", "siteB", "/ckpt.bin")
	if err != nil {
		return nil, err
	}
	done, err := w.svc.Wait(task.ID, 2*time.Minute)
	if err != nil {
		return nil, err
	}
	if done.Status != transfer.TaskSucceeded {
		return nil, fmt.Errorf("task %s: %s", done.Status, done.Error)
	}
	return done, nil
}

// RunE10Workflow reproduces Fig 3 end to end and reports each step of the
// GCMU workflow as a checked row: site password -> PAM -> short-lived
// certificate with embedded username -> GridFTP login -> AUTHZ callout ->
// transfer, with no gridmap and no external CA anywhere.
func RunE10Workflow() (*Table, error) {
	t := &Table{
		ID:      "E10",
		Title:   "GCMU workflow (Fig 3), executed end to end",
		Paper:   "Fig 3 / §IV: MyProxy Online CA + GridFTP + AUTHZ callout; no explicit DN-to-username mapping (§IV.C)",
		Columns: []string{"step", "observation", "verdict"},
	}
	nw := netsim.NewNetwork()
	stack, accounts := newPAMStack("siteA", "alice", "pw")
	ep, err := gcmu.Install(gcmu.Options{
		Name: "siteA", Host: nw.Host("siteA"), Auth: stack, Accounts: accounts,
	})
	if err != nil {
		return nil, err
	}
	defer ep.Close()
	laptop := nw.Host("laptop")

	check := func(step, observation string, ok bool) {
		verdict := "PASS"
		if !ok {
			verdict = "FAIL"
		}
		t.AddRow(step, observation, verdict)
	}

	// Steps 1-3: username/password -> PAM -> short-lived certificate.
	cred, err := ep.Logon(laptop, "alice", pam.PasswordConv("pw"))
	if err != nil {
		check("1-3: myproxy-logon with site password", errString(err), false)
		return t, nil
	}
	check("1-3: myproxy-logon with site password", fmt.Sprintf("issued %q", cred.DN()), true)
	check("   username embedded in DN (§IV.A)", "final CN = "+cred.DN().LastCN(), cred.DN().LastCN() == "alice")
	check("   certificate is short-lived", fmt.Sprintf("expires in %v", time.Until(cred.Cert.NotAfter).Round(time.Minute)),
		time.Until(cred.Cert.NotAfter) < 24*time.Hour)

	// Negative: wrong password issues nothing.
	_, badErr := ep.Logon(laptop, "alice", pam.PasswordConv("wrong"))
	check("   wrong password refused", errString(badErr), badErr != nil)

	// Step 4: authenticate to GridFTP with the certificate.
	client, err := ep.Connect(laptop, "alice", pam.PasswordConv("pw"))
	check("4: GridFTP authentication with issued certificate", "control channel established", err == nil)
	if err != nil {
		return t, nil
	}
	defer client.Close()

	// Step 5: AUTHZ callout maps DN -> local account; transfer executes
	// in alice's sandbox.
	_, err = client.Put("/fig3.bin", dsi.NewBufferFile(pattern(128<<10)))
	check("5: AUTHZ callout + transfer as local user", "128 KiB stored in alice's sandbox", err == nil)
	_, err = ep.Storage.Stat("alice", "/fig3.bin")
	check("   file owned by mapped local account", "visible under user alice", err == nil)
	t.Note("no gridmap file exists on this endpoint; the callout parses the username from the certificate subject")
	return t, nil
}

func errString(err error) string {
	if err == nil {
		return "(no error)"
	}
	s := err.Error()
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}

// RunE11OAuthAudit reproduces Fig 6 vs Fig 7: with plain activation the
// user's password flows through the third-party service; with OAuth it is
// entered only on the site's own web page.
func RunE11OAuthAudit() (*Table, error) {
	t := &Table{
		ID:      "E11",
		Title:   "Endpoint activation: password flow with and without OAuth",
		Paper:   "Fig 6 (password passes through Globus Online) vs Fig 7 (OAuth: password entered only at the site)",
		Columns: []string{"activation method", "passwords seen by service", "transfer works", "verdict"},
	}
	// Password activation.
	{
		w, err := buildHostedWorld(transfer.Config{}, false, 0)
		if err != nil {
			return nil, err
		}
		if err := w.activate(); err != nil {
			w.close()
			return nil, err
		}
		ok, err := hostedRoundTrip(w)
		if err != nil {
			w.close()
			return nil, err
		}
		t.AddRow("username/password via service (Fig 6)",
			fmt.Sprintf("%d", w.svc.PasswordsSeen), boolWord(ok), verdict(w.svc.PasswordsSeen == 2 && ok))
		w.close()
	}
	// OAuth activation.
	{
		w, err := buildHostedWorld(transfer.Config{}, true, 0)
		if err != nil {
			return nil, err
		}
		login := func(ep *gcmu.Endpoint, pw string) transfer.UserLoginFunc {
			return func(base, session string) (string, error) {
				userHTTP := oauth.HTTPClient(w.nw.Host("laptop"), ep.Trust)
				return oauth.Login(userHTTP, base, session, "alice", pw)
			}
		}
		if err := w.svc.ActivateWithOAuth("siteA", "alice", login(w.epA, "pwA")); err != nil {
			w.close()
			return nil, err
		}
		if err := w.svc.ActivateWithOAuth("siteB", "alice", login(w.epB, "pwB")); err != nil {
			w.close()
			return nil, err
		}
		ok, err := hostedRoundTrip(w)
		if err != nil {
			w.close()
			return nil, err
		}
		t.AddRow("OAuth at the site's web page (Fig 7)",
			fmt.Sprintf("%d", w.svc.PasswordsSeen), boolWord(ok), verdict(w.svc.PasswordsSeen == 0 && ok))
		w.close()
	}
	t.Note("the service counts every password that crosses its trust boundary; OAuth reduces that to zero while transfers still work")
	return t, nil
}

func hostedRoundTrip(w *hostedWorld) (bool, error) {
	if err := w.putSrc("/audit.bin", pattern(128<<10)); err != nil {
		return false, err
	}
	task, err := w.svc.Submit("alice", "siteA", "/audit.bin", "siteB", "/audit.bin")
	if err != nil {
		return false, err
	}
	done, err := w.svc.Wait(task.ID, time.Minute)
	if err != nil {
		return false, err
	}
	return done.Status == transfer.TaskSucceeded, nil
}

func boolWord(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

func verdict(b bool) string {
	if b {
		return "PASS"
	}
	return "MISMATCH"
}

// AblationAutotuneConfig parameterizes the auto-tuning ablation.
type AblationAutotuneConfig struct {
	FileBytes int
	Link      netsim.LinkParams
}

// DefaultAblationAutotune moves a 16 MiB file over a window-limited WAN.
func DefaultAblationAutotune() AblationAutotuneConfig {
	return AblationAutotuneConfig{
		FileBytes: 16 << 20,
		Link:      netsim.LinkParams{Bandwidth: 40e6, RTT: 25 * time.Millisecond, StreamWindow: 256 * 1024},
	}
}

// RunAblationAutotune measures the service's automatic parallelism tuning
// (§VI.A: Globus Online "has the ability to automatically tune GridFTP
// transfer options for high performance") against a fixed single stream.
func RunAblationAutotune(cfg AblationAutotuneConfig) (*Table, error) {
	t := &Table{
		ID:      "ABL-autotune",
		Title:   "Hosted-service auto-tuning vs fixed parallelism",
		Paper:   `§VI.A: "Globus Online also has the ability to automatically tune GridFTP transfer options"`,
		Columns: []string{"tuning", "parallelism chosen", "elapsed", "throughput"},
	}
	for _, autotune := range []bool{true, false} {
		w, err := buildHostedWorld(transfer.Config{DisableAutotune: !autotune}, false, 0)
		if err != nil {
			return nil, err
		}
		w.nw.SetLink("siteA", "siteB", cfg.Link)
		if err := w.activate(); err != nil {
			w.close()
			return nil, err
		}
		if err := w.putSrc("/tune.bin", pattern(cfg.FileBytes)); err != nil {
			w.close()
			return nil, err
		}
		start := time.Now()
		task, err := w.svc.Submit("alice", "siteA", "/tune.bin", "siteB", "/tune.bin")
		if err != nil {
			w.close()
			return nil, err
		}
		done, err := w.svc.Wait(task.ID, 2*time.Minute)
		if err != nil {
			w.close()
			return nil, err
		}
		elapsed := time.Since(start)
		if done.Status != transfer.TaskSucceeded {
			w.close()
			return nil, fmt.Errorf("task: %s (%s)", done.Status, done.Error)
		}
		label := "autotune"
		if !autotune {
			label = "fixed P=1"
		}
		t.AddRow(label, fmt.Sprintf("%d", done.Parallelism),
			elapsed.Round(time.Millisecond).String(),
			mbps(rate(int64(cfg.FileBytes), elapsed)))
		w.close()
	}
	t.Note("file %d MiB over %v RTT, %d KiB windows: auto-tuned parallelism recovers the window-limited loss",
		cfg.FileBytes>>20, cfg.Link.RTT, cfg.Link.StreamWindow/1024)
	return t, nil
}
