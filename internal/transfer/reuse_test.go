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
// established third-party data path — every worker that gets a file wires
// its pair exactly once (one PASV, one PORT, one connection per stream), and
// nothing else opens a data channel: the walk lists over the control
// channel (MLSC). With less than a window of bytes
// the first worker has every file queued at the servers before the others
// have dialled, so fewer pairs than workers may ever wire; with more than a
// window per worker all of them do.
func TestWorkersReuseInterSiteDataPath(t *testing.T) {
	const workers = 4
	for _, tc := range []struct {
		name             string
		nFiles, baseSize int
		everyWorkerWires bool
	}{
		{"less than one window", 24, 16 << 10, false},
		{"more than a window per worker", 40, 700 << 10, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := obs.Nop()
			w := buildWorld(t, Config{Obs: o, TaskConcurrency: workers}, false)
			slowLinks(w, 10*time.Millisecond)
			activateBoth(t, w)
			files := distinctTree(t, w, "/tree", tc.nFiles, tc.baseSize)

			done, _ := runDirTask(t, w, "/tree")
			if done.CompletedFiles != tc.nFiles || done.Workers != workers || done.Attempts != 1 {
				t.Fatalf("completed %d files with %d workers in %d attempts", done.CompletedFiles, done.Workers, done.Attempts)
			}
			verifyTree(t, w, files)
			conns := w.nw.LinkStats("siteA", "siteB").Conns
			pasv := o.Metrics.Counter(obs.Name("gridftp.client.commands", "cmd=PASV")).Value()
			port := o.Metrics.Counter(obs.Name("gridftp.client.commands", "cmd=PORT")).Value()
			if conns != port || pasv != port {
				t.Errorf("%d siteA↔siteB connections, %d PASV, %d PORT for %d files: want all three equal (one wiring per pair that moved files, and none for the walk)",
					conns, pasv, port, tc.nFiles)
			}
			if port < 1 || port > workers || (tc.everyWorkerWires && port != workers) {
				t.Errorf("%d pairs wired, with %d workers (every worker expected to: %v)", port, workers, tc.everyWorkerWires)
			}
		})
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
