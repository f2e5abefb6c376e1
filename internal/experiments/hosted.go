package experiments

import (
	"fmt"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/transfer"
	"gridftp.dev/instant/internal/world"
)

// hostedTask submits alice's siteA:src -> siteB:dst to the triangle's
// service and waits for it to succeed; it returns the task and its wall time.
func hostedTask(w *world.Hosted, src, dst string) (*transfer.Task, time.Duration, error) {
	start := time.Now()
	task, err := w.Service.Submit(world.User, "siteA", src, "siteB", dst)
	if err != nil {
		return nil, 0, err
	}
	done, err := w.Service.Wait(task.ID, 5*time.Minute)
	if err != nil {
		return nil, 0, err
	}
	if done.Status != transfer.TaskSucceeded {
		return nil, 0, fmt.Errorf("task %s: %s", done.Status, done.Error)
	}
	return done, time.Since(start), nil
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
		task, err := measureCheckpointTask(cfg, checkpoints)
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

// measureCheckpointTask runs one hosted transfer whose receive side fails
// at cfg.FaultFraction on the first attempt, and returns the finished task:
// its attempts and the bytes moved across all of them.
func measureCheckpointTask(cfg E6Config, checkpoints bool) (*transfer.Task, error) {
	w, err := world.NewHosted(transfer.Config{
		RetryDelay:           10 * time.Millisecond,
		DisableCheckpointing: !checkpoints,
	}, gcmu.Options{MarkerInterval: 15 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	defer w.Close()
	w.Net.SetLink("siteA", "siteB", cfg.Link)
	if err := w.Activate(); err != nil {
		return nil, err
	}
	if err := w.Put("/ckpt.bin", pattern(cfg.FileBytes)); err != nil {
		return nil, err
	}
	w.FaultB.Arm(int64(float64(cfg.FileBytes) * cfg.FaultFraction))
	done, _, err := hostedTask(w, "/ckpt.bin", "/ckpt.bin")
	return done, err
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
	ep, err := world.NewEndpoint(gcmu.Options{Name: "siteA", Host: nw.Host("siteA")}, map[string]string{"alice": "pw"})
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
	for _, withOAuth := range []bool{false, true} {
		seen, ok, err := auditRun(withOAuth)
		if err != nil {
			return nil, err
		}
		label, want := "username/password via service (Fig 6)", 2
		if withOAuth {
			label, want = "OAuth at the site's web page (Fig 7)", 0
		}
		t.AddRow(label, fmt.Sprintf("%d", seen), boolWord(ok), verdict(seen == want && ok))
	}
	t.Note("the service counts every password that crosses its trust boundary; OAuth reduces that to zero while transfers still work")
	return t, nil
}

// auditRun activates a fresh triangle and moves one file through it; it
// returns the passwords the service saw and whether the transfer worked.
func auditRun(withOAuth bool) (int, bool, error) {
	w, err := world.NewHosted(transfer.Config{}, gcmu.Options{WithOAuth: withOAuth})
	if err != nil {
		return 0, false, err
	}
	defer w.Close()
	if err := w.Activate(); err != nil {
		return 0, false, err
	}
	if err := w.Put("/audit.bin", pattern(128<<10)); err != nil {
		return 0, false, err
	}
	_, _, terr := hostedTask(w, "/audit.bin", "/audit.bin")
	return w.Service.PasswordsSeen, terr == nil, nil
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
		done, elapsed, err := autotuneTask(cfg, autotune)
		if err != nil {
			return nil, err
		}
		label := "autotune"
		if !autotune {
			label = "fixed P=1"
		}
		t.AddRow(label, fmt.Sprintf("%d", done.Parallelism),
			elapsed.Round(time.Millisecond).String(),
			mbps(rate(int64(cfg.FileBytes), elapsed)))
	}
	t.Note("file %d MiB over %v RTT, %d KiB windows: auto-tuned parallelism recovers the window-limited loss",
		cfg.FileBytes>>20, cfg.Link.RTT, cfg.Link.StreamWindow/1024)
	return t, nil
}

func autotuneTask(cfg AblationAutotuneConfig, autotune bool) (*transfer.Task, time.Duration, error) {
	w, err := world.NewHosted(transfer.Config{DisableAutotune: !autotune}, gcmu.Options{})
	if err != nil {
		return nil, 0, err
	}
	defer w.Close()
	w.Net.SetLink("siteA", "siteB", cfg.Link)
	if err := w.Activate(); err != nil {
		return nil, 0, err
	}
	if err := w.Put("/tune.bin", pattern(cfg.FileBytes)); err != nil {
		return nil, 0, err
	}
	return hostedTask(w, "/tune.bin", "/tune.bin")
}
