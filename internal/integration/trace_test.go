package integration

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/obs/collector"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/transfer"
)

// TestDistributedTraceAcrossThreeProcesses is the acceptance scenario for
// cross-process tracing: a hosted third-party transfer between two GCMU
// endpoints in different trust domains, where the service, the source
// server, and the destination server each record into their own obs
// bundle (as three separate processes would). Exporting all three into a
// collector must yield ONE connected trace — the task span tree from the
// service with the source's RETR and the destination's STOR stitched
// under it — plus a renderable critical-path timeline. The activation
// trace (service span + the endpoint MyProxy server's logon span) must
// stitch the same way.
//
// When TRACE_ARTIFACT_DIR is set (CI does this), the stitched trace is
// written there as JSON so failures can be debugged from the artifact.
func TestDistributedTraceAcrossThreeProcesses(t *testing.T) {
	nw := netsim.NewNetwork()
	srcObs, dstObs, svcObs := obs.Nop(), obs.Nop(), obs.Nop()
	srcEP := installLDAP(t, nw, "siteA", 1, nil, func(o *gcmu.Options) {
		o.Obs = srcObs
		o.MarkerInterval = 25 * time.Millisecond
	})
	dstEP := installLDAP(t, nw, "siteB", 1, nil, func(o *gcmu.Options) {
		o.Obs = dstObs
		o.MarkerInterval = 25 * time.Millisecond
	})

	svc := transfer.NewService(nw.Host("globusonline"), transfer.Config{
		RetryDelay: 25 * time.Millisecond,
		Obs:        svcObs,
	})
	t.Cleanup(svc.Close)
	for _, ep := range []*gcmu.Endpoint{srcEP, dstEP} {
		if err := svc.RegisterEndpoint(transfer.Endpoint{
			Name: ep.Name, GridFTPAddr: ep.GridFTPAddr, MyProxyAddr: ep.MyProxyAddr,
			Trust: ep.Trust, CADN: ep.SigningCA.DN(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.ActivateWithPassword("siteA", "user0", "pw0"); err != nil {
		t.Fatal(err)
	}
	if err := svc.ActivateWithPassword("siteB", "user0", "pw0"); err != nil {
		t.Fatal(err)
	}

	// Seed the source file over the wire.
	client, err := srcEP.Connect(nw.Host("laptop"), "user0", pam.PasswordConv("pw0"))
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 512<<10)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if _, err := client.Put("/trace.bin", dsi.NewBufferFile(payload)); err != nil {
		t.Fatal(err)
	}
	client.Close()

	task, err := svc.Submit("user0", "siteA", "/trace.bin", "siteB", "/trace.bin")
	if err != nil {
		t.Fatal(err)
	}
	done, err := svc.Wait(task.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != transfer.TaskSucceeded {
		t.Fatalf("task %s: %s (%s)", done.ID, done.Status, done.Error)
	}

	// Export each "process" into the collector, exactly as three daemons'
	// /debug/spans exports read by benchreport -trace-timeline would.
	c := collector.New()
	c.Add(collector.FromInfos("transfer-service", svcObs.Tracer().Spans())...)
	c.Add(collector.FromInfos("gridftp-siteA", srcObs.Tracer().Spans())...)
	c.Add(collector.FromInfos("gridftp-siteB", dstObs.Tracer().Spans())...)

	var taskTrace, taskSpanID string
	for _, si := range svcObs.Tracer().Spans() {
		if si.Name == "task" {
			taskTrace, taskSpanID = si.TraceID, si.SpanID
		}
	}
	if taskTrace == "" {
		t.Fatal("service recorded no task span")
	}
	tr := c.Stitch(taskTrace)
	if tr == nil {
		t.Fatal("collector has no spans for the task trace")
	}
	writeTraceArtifact(t, tr)

	// The tentpole assertion: one connected trace across three processes.
	if !tr.Connected() {
		t.Fatalf("task trace not connected: %d roots, %d orphans\n%s",
			len(tr.Roots), len(tr.Orphans), tr.Timeline())
	}
	root := tr.Roots[0]
	if root.Name != "task" || root.Process != "transfer-service" {
		t.Fatalf("root is %s@%s, want task@transfer-service", root.Name, root.Process)
	}
	wantSpans := map[string]string{ // name -> process
		"gridftp.retr": "gridftp-siteA",
		"gridftp.stor": "gridftp-siteB",
	}
	for name, proc := range wantSpans {
		found := false
		for _, s := range tr.Spans {
			if s.Name == name {
				found = true
				if s.Process != proc {
					t.Errorf("%s recorded by %s, want %s", name, s.Process, proc)
				}
				if s.ParentSpanID != taskSpanID {
					t.Errorf("%s parent %s, want the task span %s", name, s.ParentSpanID, taskSpanID)
				}
				if s.TraceID != taskTrace {
					t.Errorf("%s trace %s, want %s", name, s.TraceID, taskTrace)
				}
			}
		}
		if !found {
			t.Errorf("trace is missing %s:\n%s", name, tr.Timeline())
		}
	}
	for _, phase := range []string{"activate", "control", "data"} {
		found := false
		for _, ch := range tr.Children(taskSpanID) {
			if ch.Name == phase {
				found = true
			}
		}
		if !found {
			t.Errorf("task span missing %q child", phase)
		}
	}

	// The timeline renders with critical-path annotations.
	tl := tr.Timeline()
	if !strings.Contains(tl, "*") {
		t.Errorf("timeline has no critical-path markers:\n%s", tl)
	}
	for _, proc := range []string{"transfer-service", "gridftp-siteA", "gridftp-siteB"} {
		if !strings.Contains(tl, proc) {
			t.Errorf("timeline missing process %s:\n%s", proc, tl)
		}
	}
	cp := tr.CriticalPath()
	if len(cp) < 2 || cp[0].Name != "task" {
		t.Errorf("critical path %v should descend from the task root", cp)
	}

	// The activation trace stitches the same way: the service's
	// activation span is the root, the MyProxy server's logon span (a
	// different process) is its child.
	var actTrace, actSpanID string
	for _, si := range svcObs.Tracer().Spans() {
		if si.Name == "activation" && si.Attrs["endpoint"] == "siteA" {
			actTrace, actSpanID = si.TraceID, si.SpanID
		}
	}
	if actTrace == "" {
		t.Fatal("service recorded no activation span for siteA")
	}
	atr := c.Stitch(actTrace)
	if !atr.Connected() {
		t.Fatalf("activation trace not connected: %d roots, %d orphans",
			len(atr.Roots), len(atr.Orphans))
	}
	logonOK := false
	for _, s := range atr.Spans {
		if s.Name == "myproxy.logon" && s.Process == "gridftp-siteA" && s.ParentSpanID == actSpanID {
			logonOK = true
		}
	}
	if !logonOK {
		t.Errorf("MyProxy logon span did not join the activation trace:\n%s", atr.Timeline())
	}
}

// writeTraceArtifact dumps the stitched trace as JSON into
// TRACE_ARTIFACT_DIR (when set) so CI can attach it to failed runs.
func writeTraceArtifact(t *testing.T, tr *collector.Trace) {
	t.Helper()
	dir := os.Getenv("TRACE_ARTIFACT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("trace artifact: %v", err)
		return
	}
	doc, err := json.MarshalIndent(map[string]any{
		"id":            tr.ID,
		"connected":     tr.Connected(),
		"spans":         tr.Spans,
		"roots":         tr.Roots,
		"orphans":       tr.Orphans,
		"critical_path": tr.CriticalPath(),
		"gaps":          tr.Gaps(),
		"timeline":      tr.Timeline(),
	}, "", "  ")
	if err != nil {
		t.Logf("trace artifact: %v", err)
		return
	}
	path := filepath.Join(dir, "stitched-trace.json")
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Logf("trace artifact: %v", err)
		return
	}
	t.Logf("stitched trace written to %s", path)
}
