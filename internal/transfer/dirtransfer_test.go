package transfer

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/leakcheck"
	"gridftp.dev/instant/internal/obs"
)

// TestRecursiveDirectoryTransfer submits a directory: the service walks
// the tree, recreates it at the destination, and moves every file —
// Globus Online's recursive transfer behaviour.
func TestRecursiveDirectoryTransfer(t *testing.T) {
	w := buildWorld(t, Config{}, false)
	activateBoth(t, w)

	// Build a small tree on the source.
	mk := func(path string, content []byte) {
		f, err := w.epA.Storage.Create("alice", path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		dsi.WriteAll(f, content)
		f.Close()
	}
	for _, d := range []string{"/run", "/run/raw", "/run/raw/day1", "/run/plots"} {
		if err := w.epA.Storage.Mkdir("alice", d); err != nil {
			t.Fatal(err)
		}
	}
	contents := map[string][]byte{
		"/run/readme.txt":        []byte("results of run 42"),
		"/run/raw/day1/a.dat":    pattern(200000),
		"/run/raw/day1/b.dat":    pattern(100001),
		"/run/plots/energy.png":  pattern(50000),
		"/run/plots/spectra.png": pattern(70007),
	}
	for p, c := range contents {
		mk(p, c)
	}

	task, err := w.svc.Submit("alice", "siteA", "/run", "siteB", "/run-copy")
	if err != nil {
		t.Fatal(err)
	}
	done, err := w.svc.Wait(task.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskSucceeded {
		t.Fatalf("task: %s (%s)", done.Status, done.Error)
	}
	if done.TotalFiles != len(contents) || done.CompletedFiles != len(contents) {
		t.Fatalf("files %d/%d, want %d", done.CompletedFiles, done.TotalFiles, len(contents))
	}

	for p, want := range contents {
		dstPath := "/run-copy" + p[len("/run"):]
		f, err := w.epB.Storage.Open("alice", dstPath)
		if err != nil {
			t.Fatalf("%s missing at destination: %v", dstPath, err)
		}
		got, _ := dsi.ReadAll(f)
		f.Close()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s content mismatch", dstPath)
		}
	}
}

// TestDirectoryTransferResumesAtFailedFile injects a fault partway
// through the file list: the retry must resume from the failed file, not
// re-send the completed ones.
func TestDirectoryTransferResumesAtFailedFile(t *testing.T) {
	w := buildWorld(t, Config{RetryDelay: 10 * time.Millisecond}, false)
	activateBoth(t, w)
	if err := w.epA.Storage.Mkdir("alice", "/batch"); err != nil {
		t.Fatal(err)
	}
	const n = 6
	const fileSize = 300000
	for i := 0; i < n; i++ {
		f, err := w.epA.Storage.Create("alice", fmt.Sprintf("/batch/f%d.bin", i))
		if err != nil {
			t.Fatal(err)
		}
		dsi.WriteAll(f, pattern(fileSize))
		f.Close()
	}
	// Fault after roughly 2.5 files' worth of received bytes. FaultStorage
	// arms per-file (it wraps the next opened file), so arm mid-stream via
	// a watcher that arms once a couple of files have landed.
	w.faultB.Arm(fileSize / 2)

	task, err := w.svc.Submit("alice", "siteA", "/batch", "siteB", "/batch")
	if err != nil {
		t.Fatal(err)
	}
	done, err := w.svc.Wait(task.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskSucceeded {
		t.Fatalf("task: %s (%s)", done.Status, done.Error)
	}
	if done.Attempts < 2 {
		t.Fatalf("fault did not trigger a retry (attempts=%d)", done.Attempts)
	}
	if done.CompletedFiles != n {
		t.Fatalf("completed %d of %d", done.CompletedFiles, n)
	}
	// Checkpointing must have kept total bytes well under attempts×total.
	total := int64(n * fileSize)
	if done.BytesTransferred > total+total/2 {
		t.Fatalf("resume ineffective: moved %d of %d total", done.BytesTransferred, total)
	}
	for i := 0; i < n; i++ {
		f, err := w.epB.Storage.Open("alice", fmt.Sprintf("/batch/f%d.bin", i))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := dsi.ReadAll(f)
		f.Close()
		if !bytes.Equal(got, pattern(fileSize)) {
			t.Fatalf("file %d mismatch", i)
		}
	}
}

// clientCommands reads the per-verb counter of commands the service's
// sessions have sent.
func clientCommands(o *obs.Obs, verb string) int64 {
	return o.Metrics.Counter(obs.Name("gridftp.client.commands", "cmd="+verb)).Value()
}

// TestDestinationTreeAlreadyThere: the directories a task needs exist at the
// destination, one of them holding a file. Their MKDs are refused, the STORs
// behind them succeed, and that is all it costs: one attempt, no command
// beyond an MKD per directory — in particular no MLST to look at what refused.
func TestDestinationTreeAlreadyThere(t *testing.T) {
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o}, false)
	activateBoth(t, w)
	for _, d := range []string{"/tree", "/tree/sub"} {
		for _, s := range []dsi.Storage{w.epA.Storage, w.epB.Storage} {
			if err := s.Mkdir("alice", d); err != nil {
				t.Fatal(err)
			}
		}
	}
	files := map[string][]byte{"/tree/top.bin": pattern(40 << 10), "/tree/sub/leaf.bin": pattern(70 << 10)}
	for name, data := range files {
		w.putSrc(t, name, data)
	}
	f, err := w.epB.Storage.Create("alice", "/tree/sub/kept.bin")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()

	done, _ := runDirTask(t, w, "/tree")
	if done.Attempts != 1 || done.CompletedFiles != len(files) {
		t.Fatalf("%d files in %d attempts, want %d in 1", done.CompletedFiles, done.Attempts, len(files))
	}
	verifyTree(t, w, files)
	if _, err := w.epB.Storage.Stat("alice", "/tree/sub/kept.bin"); err != nil {
		t.Errorf("the file the destination already held: %v", err)
	}
	if mkd, mlst := clientCommands(o, "MKD"), clientCommands(o, "MLST"); mkd != 2 || mlst != 1 {
		t.Errorf("%d MKD and %d MLST, want 2 (one per directory) and 1 (the source path)", mkd, mlst)
	}
}

// TestDestinationPathIsAFile: where the task's root directory should go there
// is a regular file. The MKD is refused, and so is the first STOR under it;
// the attempt fails there, and its error says which directory could not be
// made — not only that some file under it could not be stored.
func TestDestinationPathIsAFile(t *testing.T) {
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o, RetryLimit: 1}, false)
	activateBoth(t, w)
	distinctTree(t, w, "/data", 4, 16<<10)
	f, err := w.epB.Storage.Create("alice", "/taken")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	before := runtime.NumGoroutine()

	task, err := w.svc.Submit("alice", "siteA", "/data", "siteB", "/taken")
	if err != nil {
		t.Fatal(err)
	}
	done, err := w.svc.Wait(task.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != TaskFailed || done.Attempts != 1 || done.CompletedFiles != 0 {
		t.Fatalf("task %s after %d attempts with %d files done, want failed after 1 with none", done.Status, done.Attempts, done.CompletedFiles)
	}
	if !strings.Contains(done.Error, "MKD /taken was refused") {
		t.Errorf("the error does not name the directory that could not be made: %s", done.Error)
	}
	if fi, err := w.epB.Storage.Stat("alice", "/taken"); err != nil || fi.IsDir {
		t.Errorf("the file in the way: %+v, %v", fi, err)
	}
	// The failed attempt closed its pair (W1): nothing is parked or running.
	waitSessions(t, o, 0)
	if after := leakcheck.AtMost(before); after > before {
		t.Errorf("goroutines grew from %d to %d across the failed task", before, after)
	}
}

// TestTaskWithAListingTooLargeForAReply: the source directory's fact lines
// exceed what one control-channel reply may carry, so the server refuses the
// plan flight's speculative MLSC with 504 and the walk lists that directory
// with MLSD instead. The task still takes one attempt and every file arrives.
func TestTaskWithAListingTooLargeForAReply(t *testing.T) {
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o}, false)
	activateBoth(t, w)
	if err := w.epA.Storage.Mkdir("alice", "/big"); err != nil {
		t.Fatal(err)
	}
	// 300 names of 15000 bytes: a little over the 4 MiB a reply may carry.
	const n = 300
	long := strings.Repeat("n", 15000)
	files := map[string][]byte{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("/big/%s-%03d", long, i)
		files[name] = pattern(100 + i)
		w.putSrc(t, name, files[name])
	}
	done, _ := runDirTask(t, w, "/big")
	if done.Attempts != 1 || done.CompletedFiles != n {
		t.Fatalf("%d files in %d attempts, want %d in 1", done.CompletedFiles, done.Attempts, n)
	}
	verifyTree(t, w, files)
	if mlsc, mlsd := clientCommands(o, "MLSC"), clientCommands(o, "MLSD"); mlsc != 1 || mlsd != 1 {
		t.Errorf("%d MLSC and %d MLSD, want 1 refused and 1 in its place", mlsc, mlsd)
	}
}
