package transfer

import (
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

// TestAdmissionCannotDeadlockAtOneSlot: a file holds its admission slot
// from begin to completion, and a worker only ever waits for a slot while
// it holds none — so with a single slot, two workers of one task, and two
// tasks at once, all make progress, one file in flight at a time.
func TestAdmissionCannotDeadlockAtOneSlot(t *testing.T) {
	const nFiles = 10
	check := func(t *testing.T, o *obs.Obs, files int64) {
		t.Helper()
		reg := o.Metrics
		if v := reg.Gauge("transfer.active_transfers_peak").Value(); v != 1 {
			t.Errorf("active_transfers peaked at %d with MaxActiveTransfers 1", v)
		}
		if v := reg.Gauge("transfer.active_transfers").Value(); v != 0 {
			t.Errorf("active_transfers gauge left at %d, want 0", v)
		}
		if c := reg.Histogram("transfer.queue_wait_seconds", queueWaitBuckets).Count(); c != files {
			t.Errorf("queue_wait_seconds observed %d waits, want %d (one per file)", c, files)
		}
	}
	t.Run("two workers of one task", func(t *testing.T) {
		o := obs.Nop()
		w := buildWorld(t, Config{Obs: o, MaxActiveTransfers: 1, TaskConcurrency: 2}, false)
		activateBoth(t, w)
		files := distinctTree(t, w, "/one", nFiles, 64<<10)
		if done, _ := runDirTask(t, w, "/one"); done.Workers != 2 || done.Attempts != 1 {
			t.Fatalf("%d workers, %d attempts", done.Workers, done.Attempts)
		}
		verifyTree(t, w, files)
		check(t, o, nFiles)
	})
	t.Run("two tasks at once", func(t *testing.T) {
		o := obs.Nop()
		w := buildWorld(t, Config{Obs: o, MaxActiveTransfers: 1}, false)
		activateBoth(t, w)
		trees := []map[string][]byte{
			distinctTree(t, w, "/left", nFiles, 64<<10),
			distinctTree(t, w, "/right", nFiles, 48<<10),
		}
		var wg sync.WaitGroup
		for _, dir := range []string{"/left", "/right"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				task, err := w.svc.Submit("alice", "siteA", dir, "siteB", dir)
				if err != nil {
					t.Error(err)
					return
				}
				if done, err := w.svc.Wait(task.ID, time.Minute); err != nil || done.Status != TaskSucceeded {
					t.Errorf("%s: %v (%+v)", dir, err, done)
				}
			}()
		}
		wg.Wait()
		for _, files := range trees {
			verifyTree(t, w, files)
		}
		check(t, o, 2*nFiles)
	})
}

// TestLinkCutMidWindowResumes cuts the inter-site link while a worker has
// a window of files queued at both servers: one is on the wire, the ones
// behind it have not started. The servers refuse everything queued behind
// the failed file at once, the attempt ends with each of them accounted
// for, and the retry moves only what is unfinished — the interrupted file
// from its restart markers, the queued ones from the start, no completed
// file again — and leaves every file byte-exact.
func TestLinkCutMidWindowResumes(t *testing.T) {
	const nFiles = 12
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o, RetryLimit: 8, RetryDelay: 30 * time.Millisecond, TaskConcurrency: 1}, false)
	activateBoth(t, w)
	// 12 files of ~0.5 MiB: the 4 MiB window holds about eight of them, and
	// at 20 MB/s each is ~25 ms on the wire.
	files := distinctTree(t, w, "/cut", nFiles, 500<<10)
	var total int64
	for _, data := range files {
		total += int64(len(data))
	}
	w.nw.SetLink("siteA", "siteB", netsim.LinkParams{
		Bandwidth: 20e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22,
	})

	task, err := w.svc.Submit("alice", "siteA", "/cut", "siteB", "/cut")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := w.svc.TaskStatus(task.ID)
		if err != nil {
			t.Fatal(err)
		}
		if st.CompletedFiles >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no file completed: %s (%s)", st.Status, st.Error)
		}
		time.Sleep(time.Millisecond)
	}
	w.nw.CutLink("siteA", "siteB")
	time.Sleep(80 * time.Millisecond)
	w.nw.RestoreLink("siteA", "siteB")

	done, err := w.svc.Wait(task.ID, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskSucceeded {
		t.Fatalf("task %s: %s (%s)", done.ID, done.Status, done.Error)
	}
	if done.Attempts < 2 {
		t.Fatalf("the cut did not interrupt the task (attempts=%d)", done.Attempts)
	}
	verifyTree(t, w, files)
	if v := o.Metrics.Counter("transfer.files_total").Value(); v != nFiles {
		t.Errorf("transfer.files_total = %d, want %d (a completed file was moved again)", v, nFiles)
	}
	if done.BytesTransferred > total+total/2 {
		t.Errorf("resume ineffective: moved %d bytes for %d", done.BytesTransferred, total)
	}
	if v := o.Metrics.Gauge("transfer.active_transfers").Value(); v != 0 {
		t.Errorf("active_transfers gauge left at %d, want 0", v)
	}
	t.Logf("recovered from a cut mid-window: attempts=%d, moved %d bytes for %d", done.Attempts, done.BytesTransferred, total)
}
