package transfer

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/leakcheck"
	"gridftp.dev/instant/internal/obs"
)

// wire is what a task is charged on the wire: server sessions opened,
// inter-site data connections, and the commands that build a data path or a
// session. A task on a warm pair adds nothing to any of them.
type wire struct {
	sessions, conns, pasv, port, delg, dcsc int64
}

func (w *world) wire(o *obs.Obs) wire {
	cmd := func(verb string) int64 { return clientCommands(o, verb) }
	return wire{
		sessions: o.Metrics.Counter("gridftp.server.sessions_total").Value(),
		conns:    w.nw.LinkStats("siteA", "siteB").Conns,
		pasv:     cmd("PASV"), port: cmd("PORT"), delg: cmd("DELG"), dcsc: cmd("DCSC"),
	}
}

func (a wire) minus(b wire) wire {
	return wire{a.sessions - b.sessions, a.conns - b.conns, a.pasv - b.pasv, a.port - b.port, a.delg - b.delg, a.dcsc - b.dcsc}
}

func (w *world) parkedPairs() int {
	w.svc.mu.Lock()
	defer w.svc.mu.Unlock()
	return len(w.svc.parked)
}

func sessionsActive(o *obs.Obs) int64 {
	return o.Metrics.Gauge("gridftp.server.sessions_active").Value()
}

// waitSessions waits for the servers to have seen their sessions end: a
// session's gauge drops when its goroutine returns, a moment after the QUIT
// reply that Close waits for.
func waitSessions(t *testing.T, o *obs.Obs, want int64) {
	t.Helper()
	waitFor(t, 5*time.Second, fmt.Sprintf("%d active server sessions", want), func() bool {
		return sessionsActive(o) == want
	})
}

// warmWorld is a world with one finished directory task, whose pair is parked.
func warmWorld(t *testing.T, cfg Config) (*world, *obs.Obs, map[string][]byte) {
	t.Helper()
	o := obs.Nop()
	cfg.Obs = o
	w := buildWorld(t, cfg, false)
	activateBoth(t, w)
	files := distinctTree(t, w, "/first", 6, 16<<10)
	if done, _ := runDirTask(t, w, "/first"); done.Attempts != 1 {
		t.Fatalf("first task took %d attempts", done.Attempts)
	}
	if n := w.parkedPairs(); n != 1 {
		t.Fatalf("%d pairs parked after the first task, want 1", n)
	}
	return w, o, files
}

// TestSecondTaskRunsOnTheWarmPair: the second task between the same
// endpoints opens no session and no inter-site connection and sends no PASV,
// PORT, DELG or DCSC — it adopts the pair the first one parked, still wired —
// and is nevertheless its own task on both servers: their transfer spans join
// its trace, not the first task's. Both trees arrive byte-exact.
func TestSecondTaskRunsOnTheWarmPair(t *testing.T) {
	w, o, first := warmWorld(t, Config{})
	cold := w.wire(o)
	if cold.sessions != 2 || cold.pasv != 1 || cold.port != 1 || cold.conns != 1 {
		t.Fatalf("the cold task cost %+v, want 2 sessions and one wiring", cold)
	}
	second := distinctTree(t, w, "/second", 9, 24<<10)
	done, _ := runDirTask(t, w, "/second")
	if done.Attempts != 1 || done.CompletedFiles != len(second) {
		t.Fatalf("second task: %d files in %d attempts", done.CompletedFiles, done.Attempts)
	}
	if got := w.wire(o).minus(cold); got != (wire{}) {
		t.Errorf("the warm task cost %+v, want nothing", got)
	}
	verifyTree(t, w, first)
	verifyTree(t, w, second)
	if n := w.parkedPairs(); n != 1 {
		t.Errorf("%d pairs parked after the second task, want 1", n)
	}

	var traces []string
	for _, r := range o.Trace.Roots() {
		if r.Name == "task" {
			traces = append(traces, r.TraceID)
		}
	}
	stors := map[string]int{}
	for _, sp := range o.Trace.Spans() {
		if sp.Name == "gridftp.stor" {
			stors[sp.TraceID]++
		}
	}
	if len(traces) != 2 || stors[traces[0]] != len(first) || stors[traces[1]] != len(second) {
		t.Errorf("STOR spans per task trace %v over traces %v, want %d and %d", stors, traces, len(first), len(second))
	}
}

// TestControlLinkCutWhileParked: a parked pair whose control link died — to
// the source, whose half of the adoption flight carries the plan, or to the
// destination — costs the adopter the flight that finds out, not an attempt.
// The pair is closed, a fresh one is dialled inside the same attempt and
// plans in its own first flight, and the task succeeds.
func TestControlLinkCutWhileParked(t *testing.T) {
	for _, site := range []string{"siteA", "siteB"} {
		t.Run(site, func(t *testing.T) {
			w, o, _ := warmWorld(t, Config{})
			w.nw.CutLink("globusonline", site)
			w.nw.RestoreLink("globusonline", site)
			before := w.wire(o)
			files := distinctTree(t, w, "/second", 6, 16<<10)
			done, _ := runDirTask(t, w, "/second")
			if done.Attempts != 1 {
				t.Errorf("%d attempts, want 1", done.Attempts)
			}
			if got := w.wire(o).minus(before); got.sessions != 2 || got.delg != 2 {
				t.Errorf("after a dead parked pair the task cost %+v, want a fresh pair (2 sessions, 2 DELG)", got)
			}
			if v := o.Metrics.Counter("transfer.attempt_failures").Value(); v != 0 {
				t.Errorf("%d attempt failures, want 0", v)
			}
			verifyTree(t, w, files)
			// The dead pair's sessions are gone at both servers; the new pair is parked.
			waitSessions(t, o, 2)
		})
	}
}

// TestInterSiteLinkCutWhileParked: the adoption flight cannot see a dead
// inter-site path — both control channels answer. The first files go out
// over pooled channels that no longer exist, the attempt fails, and the cold
// attempt follows at once, without RetryDelay (W3): the task succeeds on
// attempt 2, byte-exact, long before a RetryDelay would have elapsed.
func TestInterSiteLinkCutWhileParked(t *testing.T) {
	const retryDelay = 3 * time.Second
	w, o, _ := warmWorld(t, Config{RetryDelay: retryDelay})
	w.nw.CutLink("siteA", "siteB")
	w.nw.RestoreLink("siteA", "siteB")
	files := distinctTree(t, w, "/second", 6, 16<<10)
	done, elapsed := runDirTask(t, w, "/second")
	if done.Attempts != 2 {
		t.Errorf("%d attempts, want 2 (one on the dead pair, one cold)", done.Attempts)
	}
	if v := o.Metrics.Counter("transfer.attempt_failures").Value(); v != 1 {
		t.Errorf("%d attempt failures counted, want 1", v)
	}
	if elapsed >= retryDelay {
		t.Errorf("task took %v: the cold attempt waited out RetryDelay (%v)", elapsed, retryDelay)
	}
	verifyTree(t, w, files)
	waitSessions(t, o, 2)
}

// TestRetryNeverAdopts (W2): a pair parked while a task waits out its
// RetryDelay is not for that task — its second attempt dials.
func TestRetryNeverAdopts(t *testing.T) {
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o, RetryDelay: time.Second}, false)
	activateBoth(t, w)
	payload := pattern(256 << 10)
	w.putSrc(t, "/faulty.bin", payload)
	other := distinctTree(t, w, "/other", 3, 16<<10)

	w.faultB.Arm(64 << 10)
	task, err := w.svc.Submit("alice", "siteA", "/faulty.bin", "siteB", "/faulty.bin")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the first attempt to fail", func() bool {
		return o.Metrics.Counter("transfer.attempt_failures").Value() == 1
	})
	// Nothing is parked (W1: the failed attempt's pair was closed). A second
	// task runs to completion inside the RetryDelay and parks its pair.
	if n := w.parkedPairs(); n != 0 {
		t.Fatalf("%d pairs parked after a failed attempt, want 0", n)
	}
	runDirTask(t, w, "/other")
	if n := w.parkedPairs(); n != 1 {
		t.Fatalf("%d pairs parked, want 1", n)
	}
	before := w.wire(o)
	done, err := w.svc.Wait(task.ID, time.Minute)
	if err != nil || done.Status != TaskSucceeded || done.Attempts != 2 {
		t.Fatalf("faulted task: %+v, %v", done, err)
	}
	if got := w.wire(o).minus(before); got.sessions != 2 {
		t.Errorf("the retry opened %d sessions with a pair parked, want 2: a retry dials", got.sessions)
	}
	if !bytes.Equal(w.readDst(t, "/faulty.bin"), payload) {
		t.Error("content mismatch after the retry")
	}
	verifyTree(t, w, other)
	// The retry's pair found the key taken and was closed.
	if n := w.parkedPairs(); n != 1 {
		t.Errorf("%d pairs parked at the end, want 1", n)
	}
	waitSessions(t, o, 2)
}

// TestOneAttemptTaskNeverAdopts: with RetryLimit 1 there is no cold attempt
// to fall back on, so a task never risks its only attempt on a parked pair.
func TestOneAttemptTaskNeverAdopts(t *testing.T) {
	w, o, _ := warmWorld(t, Config{RetryLimit: 1})
	before := w.wire(o)
	files := distinctTree(t, w, "/second", 3, 16<<10)
	runDirTask(t, w, "/second")
	if got := w.wire(o).minus(before); got.sessions != 2 {
		t.Errorf("second task opened %d sessions, want 2", got.sessions)
	}
	verifyTree(t, w, files)
}

// TestExpiredPairIsClosedNotAdopted (W2): a parked pair that has come within
// parkMargin of its deadline is closed when the next task looks for it, and
// that task dials; a pair that close to its deadline is not parked either.
func TestExpiredPairIsClosedNotAdopted(t *testing.T) {
	w, o, _ := warmWorld(t, Config{})
	w.svc.mu.Lock()
	for _, p := range w.svc.parked {
		p.deadline = time.Now().Add(parkMargin - time.Second)
	}
	w.svc.mu.Unlock()
	before := w.wire(o)
	files := distinctTree(t, w, "/second", 3, 16<<10)
	if done, _ := runDirTask(t, w, "/second"); done.Attempts != 1 {
		t.Errorf("%d attempts, want 1", done.Attempts)
	}
	if got := w.wire(o).minus(before); got.sessions != 2 {
		t.Errorf("task opened %d sessions with only an expired pair parked, want 2", got.sessions)
	}
	verifyTree(t, w, files)
	waitSessions(t, o, 2)

	p := w.svc.adopt(onlyKey(t, w))
	p.deadline = time.Now().Add(parkMargin - time.Second)
	w.svc.park(p)
	if n := w.parkedPairs(); n != 0 {
		t.Errorf("a pair %v from its deadline was parked", parkMargin-time.Second)
	}
	waitSessions(t, o, 0)
}

func onlyKey(t *testing.T, w *world) pairKey {
	t.Helper()
	w.svc.mu.Lock()
	defer w.svc.mu.Unlock()
	if len(w.svc.parked) != 1 {
		t.Fatalf("%d pairs parked, want 1", len(w.svc.parked))
	}
	for k := range w.svc.parked {
		return k
	}
	panic("unreachable")
}

// TestReactivationDropsParkedPairs (W4): storing a new activation closes the
// pairs parked for that (endpoint, user) before it returns — they
// authenticated with the credential it replaces — and the next task dials
// with the new one.
func TestReactivationDropsParkedPairs(t *testing.T) {
	w, o, _ := warmWorld(t, Config{})
	if n := sessionsActive(o); n != 2 {
		t.Fatalf("%d active sessions with one pair parked, want 2", n)
	}
	if err := w.svc.ActivateWithPassword("siteB", "alice", "pwB"); err != nil {
		t.Fatal(err)
	}
	if n := w.parkedPairs(); n != 0 {
		t.Fatalf("%d pairs parked after re-activation, want 0", n)
	}
	waitSessions(t, o, 0)
	before := w.wire(o)
	files := distinctTree(t, w, "/second", 3, 16<<10)
	runDirTask(t, w, "/second")
	if got := w.wire(o).minus(before); got.sessions != 2 {
		t.Errorf("task after re-activation opened %d sessions, want 2", got.sessions)
	}
	verifyTree(t, w, files)
}

// TestReregisteringAnEndpointDropsParkedPairs: a parked pair is connected to
// the address its endpoint record had; a new record for the name closes it.
func TestReregisteringAnEndpointDropsParkedPairs(t *testing.T) {
	w, o, _ := warmWorld(t, Config{})
	ep, err := w.svc.endpoint("siteB")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.svc.RegisterEndpoint(*ep); err != nil {
		t.Fatal(err)
	}
	if n := w.parkedPairs(); n != 0 {
		t.Errorf("%d pairs parked after siteB was registered again, want 0", n)
	}
	waitSessions(t, o, 0)
}

// TestPairOfSupersededActivationIsNotParked: a task that was running when its
// user re-activated finishes on the old credential; its pair could never be
// adopted, so it is closed instead of parked.
func TestPairOfSupersededActivationIsNotParked(t *testing.T) {
	w, o, _ := warmWorld(t, Config{})
	p := w.svc.adopt(onlyKey(t, w))
	if err := w.svc.ActivateWithPassword("siteA", "alice", "pwA"); err != nil {
		t.Fatal(err)
	}
	w.svc.park(p)
	if n := w.parkedPairs(); n != 0 {
		t.Errorf("%d pairs parked, want 0", n)
	}
	waitSessions(t, o, 0)
}

// TestCrossCAAndSameCANeverShare: whether the destination holds a DCSC
// context is part of the key, so a task that needs none does not adopt a
// pair that has one (nor the other way round).
func TestCrossCAAndSameCANeverShare(t *testing.T) {
	w, _, _ := warmWorld(t, Config{})
	key := onlyKey(t, w)
	if !key.dcsc {
		t.Fatal("the two test endpoints have unrelated CAs; the parked pair should hold a DCSC context")
	}
	sameCA := key
	sameCA.dcsc = false
	if p := w.svc.adopt(sameCA); p != nil {
		p.Close()
		t.Fatal("a task without DCSC adopted a pair with a DCSC context")
	}
	if n := w.parkedPairs(); n != 1 {
		t.Errorf("%d pairs parked, want the original still there", n)
	}
}

// TestWarmPairRenegotiatesParallelism: the second task's file wants two
// streams where the parked pair is wired with one. The pipeline renegotiates
// and re-wires (gridftp's S1) — one PASV, one PORT, two new connections — on
// the adopted sessions, which stay adopted.
func TestWarmPairRenegotiatesParallelism(t *testing.T) {
	w, o, _ := warmWorld(t, Config{})
	before := w.wire(o)
	payload := pattern(2<<20 + 12345)
	w.putSrc(t, "/two-streams.bin", payload)
	task, err := w.svc.Submit("alice", "siteA", "/two-streams.bin", "siteB", "/two-streams.bin")
	if err != nil {
		t.Fatal(err)
	}
	done, err := w.svc.Wait(task.ID, time.Minute)
	if err != nil || done.Status != TaskSucceeded || done.Attempts != 1 || done.Parallelism != 2 {
		t.Fatalf("task: %+v, %v", done, err)
	}
	if got, want := w.wire(o).minus(before), (wire{pasv: 1, port: 1, conns: 2}); got != want {
		t.Errorf("the renegotiating warm task cost %+v, want %+v", got, want)
	}
	if !bytes.Equal(w.readDst(t, "/two-streams.bin"), payload) {
		t.Error("content mismatch")
	}
}

// TestConcurrentTasksOnOneKey: four tasks at a time between the same
// endpoints, three rounds. One adopts what the previous round parked, the
// others dial; the first to finish parks and the rest close. Every task takes
// one attempt, every byte arrives, and at the end one pair is parked and no
// other session is left.
func TestConcurrentTasksOnOneKey(t *testing.T) {
	const rounds, perRound = 3, 4
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o, TaskConcurrency: 2}, false)
	activateBoth(t, w)
	var trees []map[string][]byte
	for i := 0; i < rounds*perRound; i++ {
		trees = append(trees, distinctTree(t, w, fmt.Sprintf("/c%02d", i), 5, 20<<10+i*1000))
	}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < perRound; i++ {
			dir := fmt.Sprintf("/c%02d", r*perRound+i)
			wg.Add(1)
			go func() {
				defer wg.Done()
				task, err := w.svc.Submit("alice", "siteA", dir, "siteB", dir)
				if err != nil {
					t.Error(err)
					return
				}
				done, err := w.svc.Wait(task.ID, time.Minute)
				if err != nil || done.Status != TaskSucceeded || done.Attempts != 1 {
					t.Errorf("%s: %+v, %v", dir, done, err)
				}
			}()
		}
		wg.Wait()
		if n := w.parkedPairs(); n != 1 {
			t.Errorf("round %d: %d pairs parked, want 1", r, n)
		}
	}
	for _, files := range trees {
		verifyTree(t, w, files)
	}
	waitSessions(t, o, 2)
}

// TestParkedPopulationIsCapped (W4): with more keys than maxParked, the
// oldest parked pair is evicted and closed. Its user's next task dials; the
// second oldest is still there to adopt.
func TestParkedPopulationIsCapped(t *testing.T) {
	users := make([]string, maxParked+1)
	for i := range users {
		users[i] = fmt.Sprintf("user%02d", i)
	}
	o := obs.Nop()
	w := buildWorldFor(t, Config{Obs: o}, false, users...)
	payload := pattern(8 << 10)
	run := func(user string) {
		t.Helper()
		task, err := w.svc.Submit(user, "siteA", "/f.bin", "siteB", "/f.bin")
		if err != nil {
			t.Fatal(err)
		}
		if done, err := w.svc.Wait(task.ID, time.Minute); err != nil || done.Status != TaskSucceeded {
			t.Fatalf("%s: %+v, %v", user, done, err)
		}
		f, err := w.epB.Storage.Open(user, "/f.bin")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := dsi.ReadAll(f)
		f.Close()
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s: content mismatch", user)
		}
	}
	for _, user := range users {
		if err := w.svc.ActivateWithPassword("siteA", user, "pwA"); err != nil {
			t.Fatal(err)
		}
		if err := w.svc.ActivateWithPassword("siteB", user, "pwB"); err != nil {
			t.Fatal(err)
		}
		f, err := w.epA.Storage.Create(user, "/f.bin")
		if err != nil {
			t.Fatal(err)
		}
		dsi.WriteAll(f, payload)
		f.Close()
		run(user)
	}
	if n := w.parkedPairs(); n != maxParked {
		t.Fatalf("%d pairs parked after %d keys, want %d", n, len(users), maxParked)
	}
	if v := o.Metrics.Gauge("transfer.parked_pairs").Value(); v != maxParked {
		t.Errorf("transfer.parked_pairs = %d, want %d", v, maxParked)
	}
	waitSessions(t, o, 2*maxParked)

	before := w.wire(o)
	run(users[1])
	if got := w.wire(o).minus(before); got.sessions != 0 {
		t.Errorf("the second-oldest pair was not there to adopt (%d sessions opened)", got.sessions)
	}
	run(users[0])
	if got := w.wire(o).minus(before); got.sessions != 2 {
		t.Errorf("the evicted user's task opened %d sessions, want 2", got.sessions)
	}
	if n := w.parkedPairs(); n != maxParked {
		t.Errorf("%d pairs parked, want %d", n, maxParked)
	}
}

// TestIdleExpiryAndCloseLeaveNothingBehind (W4): a parked pair holds two
// client sessions, two server sessions, a data listener with its accept pump
// and a pooled channel at each server. When its idle timer fires, and when
// the service is closed, all of it goes: no session, no goroutine.
func TestIdleExpiryAndCloseLeaveNothingBehind(t *testing.T) {
	o := obs.Nop()
	w := buildWorld(t, Config{Obs: o}, false)
	activateBoth(t, w)
	distinctTree(t, w, "/first", 4, 16<<10)
	distinctTree(t, w, "/second", 4, 16<<10)
	before := runtime.NumGoroutine()

	runDirTask(t, w, "/first")
	if n := w.parkedPairs(); n != 1 {
		t.Fatalf("%d pairs parked, want 1", n)
	}
	// parkedIdle is 30 s; fire the pair's own timer now.
	w.svc.mu.Lock()
	for _, p := range w.svc.parked {
		p.idle.Reset(0)
	}
	w.svc.mu.Unlock()
	waitFor(t, 5*time.Second, "the idle timer to drop the pair", func() bool { return w.parkedPairs() == 0 })
	waitSessions(t, o, 0)
	if after := leakcheck.AtMost(before); after > before {
		t.Errorf("goroutines grew from %d to %d across an idle expiry", before, after)
	}

	runDirTask(t, w, "/second")
	w.svc.Close()
	if n := w.parkedPairs(); n != 0 {
		t.Fatalf("%d pairs parked after Close", n)
	}
	waitSessions(t, o, 0)
	if after := leakcheck.AtMost(before); after > before {
		t.Errorf("goroutines grew from %d to %d across Close", before, after)
	}
	// A closed service still runs tasks; it just keeps nothing afterwards.
	distinctTree(t, w, "/third", 2, 16<<10)
	runDirTask(t, w, "/third")
	if n := w.parkedPairs(); n != 0 {
		t.Errorf("%d pairs parked by a closed service", n)
	}
	waitSessions(t, o, 0)
}

// clientTraffic is what the service's sessions have sent so far: commands by
// "VERB" (SITE by subcommand), and how many times a session turned from
// writing to waiting for a reply.
func clientTraffic(o *obs.Obs) (cmds map[string]int64, flights int64) {
	cmds = map[string]int64{}
	for _, m := range o.Metrics.Snapshot() {
		if verb, ok := strings.CutPrefix(m.Name, "gridftp.client.commands{cmd="); ok && m.Value > 0 {
			cmds[strings.TrimSuffix(verb, "}")] = m.Value
		}
	}
	return cmds, o.Metrics.Counter("gridftp.client.flights").Value()
}

// TestWarmTaskIsTwoFlightsPerSession: a 24-file directory on a warm pair is
// 55 commands — SITE TRACE and SITE TASK on each session, MLST and MLSC on the
// source, MKD on the destination, 24 RETR, 24 STOR — and each session is
// waited for twice: once for the plan (the destination's half of that flight
// is its two SITE replies), once for the files.
func TestWarmTaskIsTwoFlightsPerSession(t *testing.T) {
	w, o, _ := warmWorld(t, Config{})
	files := distinctTree(t, w, "/second", 24, 16<<10)
	cmdsBefore, flightsBefore := clientTraffic(o)
	wireBefore := w.wire(o)
	done, _ := runDirTask(t, w, "/second")
	if done.Attempts != 1 || done.CompletedFiles != 24 || done.Workers != 1 {
		t.Fatalf("%d files in %d attempts on %d workers", done.CompletedFiles, done.Attempts, done.Workers)
	}
	verifyTree(t, w, files)
	if got := w.wire(o).minus(wireBefore); got != (wire{}) {
		t.Errorf("the warm task cost %+v on the wire, want nothing", got)
	}
	cmds, flights := clientTraffic(o)
	for verb, n := range cmdsBefore {
		cmds[verb] -= n
		if cmds[verb] == 0 {
			delete(cmds, verb)
		}
	}
	want := map[string]int64{"SITE": 4, "MLST": 1, "MLSC": 1, "MKD": 1, "RETR": 24, "STOR": 24}
	if !reflect.DeepEqual(cmds, want) {
		t.Errorf("the warm task sent %v, want %v", cmds, want)
	}
	if got := flights - flightsBefore; got != 4 {
		t.Errorf("the two sessions were waited for %d times, want 4: two flights each", got)
	}
}

// TestWarmDeepTreeAndSingleFile: the other two shapes of a plan, on a warm
// pair. A tree three levels deep costs the source one flight per level and
// the destination still two in all, its seven MKDs riding ahead of the first
// STOR; a single file costs the source its two flights — the speculative MLSC
// is refused, read and forgotten — and the destination no MKD at all.
func TestWarmDeepTreeAndSingleFile(t *testing.T) {
	w, o, _ := warmWorld(t, Config{})
	files := map[string][]byte{}
	n := 0
	for _, d := range []string{"/deep", "/deep/a", "/deep/b", "/deep/a/1", "/deep/a/2", "/deep/b/1", "/deep/b/2"} {
		if err := w.epA.Storage.Mkdir("alice", d); err != nil {
			t.Fatal(err)
		}
		n++
		files[d+"/f.bin"] = pattern(10000 + 1000*n)
		w.putSrc(t, d+"/f.bin", files[d+"/f.bin"])
	}
	if err := w.epA.Storage.Mkdir("alice", "/deep/b/empty"); err != nil {
		t.Fatal(err)
	}
	cmdsBefore, flightsBefore := clientTraffic(o)
	if done, _ := runDirTask(t, w, "/deep"); done.Attempts != 1 || done.CompletedFiles != len(files) {
		t.Fatalf("%d files in %d attempts", done.CompletedFiles, done.Attempts)
	}
	verifyTree(t, w, files)
	if fi, err := w.epB.Storage.Stat("alice", "/deep/b/empty"); err != nil || !fi.IsDir {
		t.Errorf("the empty directory at the destination: %+v, %v", fi, err)
	}
	cmds, flights := clientTraffic(o)
	if mlsc, mkd := cmds["MLSC"]-cmdsBefore["MLSC"], cmds["MKD"]-cmdsBefore["MKD"]; mlsc != 8 || mkd != 8 {
		t.Errorf("%d MLSC and %d MKD for eight directories, want 8 and 8", mlsc, mkd)
	}
	// Source: plan, level two, level three (the empty directory is on it),
	// files. Destination: its SITE replies, then the MKDs and files.
	if got := flights - flightsBefore; got != 6 {
		t.Errorf("the two sessions were waited for %d times, want 6 (source 4, destination 2)", got)
	}

	payload := pattern(90 << 10)
	w.putSrc(t, "/single.bin", payload)
	cmdsBefore, flightsBefore = clientTraffic(o)
	task, err := w.svc.Submit("alice", "siteA", "/single.bin", "siteB", "/single.bin")
	if err != nil {
		t.Fatal(err)
	}
	if done, err := w.svc.Wait(task.ID, time.Minute); err != nil || done.Status != TaskSucceeded || done.Attempts != 1 {
		t.Fatalf("single-file task: %+v, %v", done, err)
	}
	if !bytes.Equal(w.readDst(t, "/single.bin"), payload) {
		t.Error("single file: content mismatch")
	}
	cmds, flights = clientTraffic(o)
	if mlsc, mkd := cmds["MLSC"]-cmdsBefore["MLSC"], cmds["MKD"]-cmdsBefore["MKD"]; mlsc != 1 || mkd != 0 || flights-flightsBefore != 4 {
		t.Errorf("single file: %d MLSC, %d MKD, %d flights; want 1, 0, 4", mlsc, mkd, flights-flightsBefore)
	}
	if n := w.parkedPairs(); n != 1 {
		t.Errorf("%d pairs parked, want 1: the refused MLSC is not a failure", n)
	}
}
