package transfer

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

// distinctTree creates n files under dir on the source, each with its own
// length and bytes, and returns their contents by name.
func distinctTree(t *testing.T, w *world, dir string, n, baseSize int) map[string][]byte {
	t.Helper()
	if err := w.epA.Storage.Mkdir("alice", dir); err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		data := pattern(baseSize + 4099*i)
		for j := range data {
			data[j] ^= byte(i + 1)
		}
		name := fmt.Sprintf("%s/f%03d.bin", dir, i)
		w.putSrc(t, name, data)
		files[name] = data
	}
	return files
}

func verifyTree(t *testing.T, w *world, files map[string][]byte) {
	t.Helper()
	for name, want := range files {
		if got := w.readDst(t, name); !bytes.Equal(got, want) {
			t.Errorf("%s: destination differs from source (%d bytes, want %d)", name, len(got), len(want))
		}
	}
}

// TestWorkersReuseInterSiteDataPath: a worker's files share one
// established third-party data path, so a 24-file task at 4 workers opens
// 4 inter-site connections (24 when every file re-wired) and sends one
// PASV per worker plus the one the MLSD walk needs (25 before).
func TestWorkersReuseInterSiteDataPath(t *testing.T) {
	const nFiles, workers = 24, 4
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o, TaskConcurrency: workers}, false)
	slowLinks(w, 10*time.Millisecond)
	activateBoth(t, w)
	files := distinctTree(t, w, "/tree", nFiles, 16<<10)

	done, _ := runDirTask(t, w, "/tree")
	if done.CompletedFiles != nFiles || done.Workers != workers || done.Attempts != 1 {
		t.Fatalf("completed %d files with %d workers in %d attempts", done.CompletedFiles, done.Workers, done.Attempts)
	}
	verifyTree(t, w, files)
	if got := w.nw.LinkStats("siteA", "siteB").Conns; got != workers {
		t.Errorf("%d siteA↔siteB connections for %d files, want %d (one per worker)", got, nFiles, workers)
	}
	if got := o.Metrics.Counter(obs.Name("gridftp.client.commands", "cmd=PASV")).Value(); got != workers+1 {
		t.Errorf("%d PASV commands, want %d (one per worker + the MLSD walk)", got, workers+1)
	}
	if got := o.Metrics.Counter(obs.Name("gridftp.client.commands", "cmd=PORT")).Value(); got != workers {
		t.Errorf("%d PORT commands, want %d", got, workers)
	}
}

// TestLinkCutOnReusedChannelResumes cuts the inter-site link while a file
// is in flight on a data channel an earlier file of the same worker
// established. Both servers lose the pooled channel mid-transfer; the
// retry must re-wire, resume from the restart markers and leave every file
// byte-exact.
func TestLinkCutOnReusedChannelResumes(t *testing.T) {
	w := buildWorld(t, Config{RetryLimit: 8, RetryDelay: 30 * time.Millisecond, TaskConcurrency: 1}, false)
	activateBoth(t, w)
	files := distinctTree(t, w, "/cut", 3, 2<<20)
	// ~100 ms per file, so a cut shortly after a file completes lands in
	// the middle of the next one.
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
		if st.CompletedFiles >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no file completed: %s (%s)", st.Status, st.Error)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(30 * time.Millisecond)
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
	if drops := w.nw.LinkStats("siteA", "siteB").Drops; drops == 0 {
		t.Fatal("the cut dropped no connection")
	}
	verifyTree(t, w, files)
	t.Logf("recovered from a cut on a reused channel: attempts=%d bytes moved=%d", done.Attempts, done.BytesTransferred)
}
