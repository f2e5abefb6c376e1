package transfer

import (
	"testing"
	"time"

	"gridftp.dev/instant/internal/obs"
)

// TestHostedTransferObservability is the acceptance scenario for the
// observability layer: one hosted third-party transfer must produce a
// span tree covering activation -> control -> data, in-flight 112
// performance markers surfaced on the task, and a metrics snapshot whose
// bytes-transferred counter equals the file size.
func TestHostedTransferObservability(t *testing.T) {
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o, RetryDelay: 20 * time.Millisecond}, false)
	activateBoth(t, w)

	payload := make([]byte, 512<<10)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	w.putSrc(t, "/obs.bin", payload)

	task, err := w.svc.Submit("alice", "siteA", "/obs.bin", "siteB", "/obs.bin")
	if err != nil {
		t.Fatal(err)
	}
	done, err := w.svc.Wait(task.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskSucceeded {
		t.Fatalf("task %s: %s (%s)", done.ID, done.Status, done.Error)
	}

	// In-flight progress: the destination client parsed 112 markers while
	// the transfer ran (the final one is emitted before the completion
	// reply, so a successful task always saw at least one per stripe).
	if done.PerfMarkers < 1 {
		t.Errorf("task observed %d perf markers, want >= 1", done.PerfMarkers)
	}
	if done.PerfBytes != int64(len(payload)) {
		t.Errorf("task perf bytes %d, want %d", done.PerfBytes, len(payload))
	}

	// Metrics: the service-level byte counter must equal the file size.
	reg := o.Metrics
	if v := reg.Counter("transfer.bytes_total").Value(); v != int64(len(payload)) {
		t.Errorf("transfer.bytes_total = %d, want %d", v, len(payload))
	}
	if v := reg.Counter("transfer.files_total").Value(); v != 1 {
		t.Errorf("transfer.files_total = %d, want 1", v)
	}
	if v := reg.Counter("transfer.tasks_succeeded").Value(); v != 1 {
		t.Errorf("transfer.tasks_succeeded = %d, want 1", v)
	}
	if v := reg.Counter("transfer.perf_markers").Value(); int(v) != done.PerfMarkers {
		t.Errorf("transfer.perf_markers = %d, task counted %d", v, done.PerfMarkers)
	}

	// Spans: one root "task" covering the activate/control/data phases,
	// plus one "activation" root per activated endpoint (each its own
	// distributed trace joined by the MyProxy server).
	var taskRoots, actRoots []obs.SpanInfo
	for _, r := range o.Trace.Roots() {
		switch r.Name {
		case "task":
			taskRoots = append(taskRoots, r)
		case "activation":
			actRoots = append(actRoots, r)
		}
	}
	if len(taskRoots) != 1 {
		t.Fatalf("%d root task spans, want 1:\n%s", len(taskRoots), o.Trace.TreeString())
	}
	if len(actRoots) != 2 {
		t.Errorf("%d activation root spans, want 2 (one per endpoint)", len(actRoots))
	}
	root := taskRoots[0]
	if !root.Ended || root.Err != "" {
		t.Fatalf("root span %+v, want ended error-free \"task\"", root)
	}
	if root.Attrs["task"] != done.ID {
		t.Errorf("root span task attr %q, want %q", root.Attrs["task"], done.ID)
	}
	phases := map[string]bool{}
	for _, child := range o.Trace.Children(root.ID) {
		if !child.Ended {
			t.Errorf("child span %s left open", child.Name)
		}
		if child.Err != "" {
			t.Errorf("child span %s carries error %q", child.Name, child.Err)
		}
		phases[child.Name] = true
	}
	for _, want := range []string{"activate", "control", "data"} {
		if !phases[want] {
			t.Errorf("span tree missing %q phase:\n%s", want, o.Trace.TreeString())
		}
	}

	// The content actually landed.
	if got := w.readDst(t, "/obs.bin"); len(got) != len(payload) {
		t.Fatalf("destination has %d bytes, want %d", len(got), len(payload))
	}
}

// TestFailedTaskSpanCarriesError checks the failure path: a task whose
// source file does not exist ends with an errored root span and a
// tasks_failed counter.
func TestFailedTaskSpanCarriesError(t *testing.T) {
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o, RetryDelay: time.Millisecond, RetryLimit: 1}, false)
	activateBoth(t, w)

	task, err := w.svc.Submit("alice", "siteA", "/no-such-file.bin", "siteB", "/x.bin")
	if err != nil {
		t.Fatal(err)
	}
	done, err := w.svc.Wait(task.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskFailed {
		t.Skipf("transfer unexpectedly succeeded (%s); failure-path span not exercised", done.Status)
	}
	if v := o.Metrics.Counter("transfer.tasks_failed").Value(); v != 1 {
		t.Errorf("transfer.tasks_failed = %d, want 1", v)
	}
	var taskRoots []obs.SpanInfo
	for _, r := range o.Trace.Roots() {
		if r.Name == "task" {
			taskRoots = append(taskRoots, r)
		}
	}
	if len(taskRoots) != 1 {
		t.Fatalf("%d root task spans, want 1", len(taskRoots))
	}
	if taskRoots[0].Err == "" {
		t.Errorf("failed task's root span has no error:\n%s", o.Trace.TreeString())
	}
	if !taskRoots[0].Ended {
		t.Errorf("failed task's root span left open")
	}
}
