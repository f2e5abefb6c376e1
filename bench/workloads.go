package main

import (
	"errors"
	"fmt"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/transfer"
)

// sizes are the input dimensions of the five workloads. The smoke test
// shrinks them; every real run uses fullSizes.
//
// The lan_* payload is 16 MiB, not the 64 MiB the protection experiment (E3)
// uses: on this shared VM a process streaming through 64 MiB buffers runs
// anywhere between 12.7 and 19.8 ms per GET depending on where its memory
// landed (forty alternating 4 s runs: max/min 1.56, against 1.14 at 16 MiB
// and 1.07 at 4 MiB), and that luck, not the code, was most of the
// run-to-run spread. 16 MiB keeps the working set cache-resident, still
// spends nine tenths of an op in the bulk path, and is the most efficient
// size per byte; 4 MiB would be steadier still but a quarter of it is
// per-op fixed cost.
type sizes struct {
	wanFresh, wanStream, lan        int
	hostedFiles, hostedLo, hostedHi int
	lanWarmups                      int
}

var fullSizes = sizes{
	wanFresh: 1 << 20, wanStream: 32 << 20, lan: 16 << 20,
	hostedFiles: 24, hostedLo: 16 << 10, hostedHi: 256 << 10,
	lanWarmups: 5,
}

// runner is one built workload. The harness calls op inside the clock and
// check outside it, strictly alternating, from one goroutine.
type runner interface {
	info() *world
	// op is one operation of the closed loop; n counts from 1 (0 = warm-up).
	op(n int) error
	// check verifies op n's output byte for byte against the generated
	// input, removes it, and readies a destination that cannot already hold
	// the next op's bytes. It returns the verified payload bytes.
	check(n int) (int64, error)
	// reset replaces the session after a failed op.
	reset() error
	// renewDue reports whether the persistent session is to be replaced
	// (reset, then one warm-up op) after op n, outside every clock and counter.
	renewDue(n int) bool
	// samples are per-op observations a workload reads off the program's
	// public results (hosted: transfer.Task fields).
	samples() map[string][]float64
	close()
}

// workloadSpec names a workload and builds it. Names are fixed: later
// issues cite them, and BENCHMARK.json lists them with their reason.
type workloadSpec struct {
	name  string
	build func(seed int64, sz sizes, rec *recorder) (runner, error)
}

var workloads = []workloadSpec{
	{"wan_fresh_p16", func(seed int64, sz sizes, rec *recorder) (runner, error) {
		return newDirectRunner(directConfig{link: refWAN, streams: 16, bytes: sz.wanFresh, fresh: true, warmups: 1}, seed, rec)
	}},
	{"wan_stream_p16", func(seed int64, sz sizes, rec *recorder) (runner, error) {
		return newDirectRunner(directConfig{link: refWAN, streams: 16, bytes: sz.wanStream, warmups: 1}, seed, rec)
	}},
	{"lan_get_clear", func(seed int64, sz sizes, rec *recorder) (runner, error) {
		return newDirectRunner(directConfig{streams: 2, bytes: sz.lan, warmups: sz.lanWarmups, renew: lanRenew}, seed, rec)
	}},
	{"lan_put_private", func(seed int64, sz sizes, rec *recorder) (runner, error) {
		return newDirectRunner(directConfig{streams: 2, bytes: sz.lan, put: true, prot: gridftp.ProtPrivate, warmups: sz.lanWarmups, renew: lanRenew}, seed, rec)
	}},
	{"hosted_small_files", newHostedRunner},
}

// lanRenew is how many ops a lan_* session serves before it is renewed.
const lanRenew = 96

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// warmUp runs n unclocked ops (op id 0) through the same op/check pair the
// measured phase uses, so pools, caches and lazily built state are warm and
// the workload is known to verify before anything is timed.
func warmUp(r runner, n int) error {
	for i := 0; i < n; i++ {
		if err := r.op(0); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
		if _, err := r.check(0); err != nil {
			return fmt.Errorf("warm-up check: %w", err)
		}
	}
	return nil
}

// closeSession ends a session inside a gridftp.close span. Close's error is
// dropped: after QUIT the server hangs up first, so the client's TLS
// close-notify usually finds the connection already gone.
func closeSession(rec *recorder, c *gridftp.Client) {
	rec.call("gridftp.close", func() error {
		c.Close()
		return nil
	})
}

// ---- the four direct-site workloads ----

type directConfig struct {
	link    netsim.LinkParams // zero = unshaped
	streams int
	bytes   int
	prot    gridftp.ProtLevel
	put     bool // op is a PUT to a fresh path (else a GET of the staged file)
	fresh   bool // op opens and closes its own session
	warmups int
	// renew > 0 replaces the persistent session every renew ops, outside
	// the clock, with one unclocked op to re-establish its data channels.
	// On the CPU-bound path a session's median op time differs from the
	// next session's by up to a tenth (which goroutine lands where); a run
	// that pools a dozen sessions repeats where a single session does not.
	renew int
}

type directRunner struct {
	cfg  directConfig
	w    *directWorld
	rec  *recorder
	data []byte
	src  *memFile // PUT source
	sink *memFile // GET destination, wiped between ops
	back []byte   // PUT read-back buffer
	c    *gridftp.Client
}

const stagedPath = "/data.bin"

func putPath(n int) string { return fmt.Sprintf("/put-%06d.bin", n) }

func newDirectRunner(cfg directConfig, seed int64, rec *recorder) (runner, error) {
	if cfg.prot == 0 {
		cfg.prot = gridftp.ProtClear
	}
	w, err := newDirectWorld(cfg.link, rec)
	if err != nil {
		return nil, err
	}
	r := &directRunner{cfg: cfg, w: w, rec: rec, data: payload(seed, 1, cfg.bytes)}
	if cfg.put {
		r.src = sourceFile(r.data)
		r.back = make([]byte, cfg.bytes)
	} else {
		f, err := w.raw.Create(localUser, stagedPath)
		if err == nil {
			err = dsi.WriteAll(f, r.data)
			f.Close()
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("staging: %w", err)
		}
		r.sink = sinkFile(cfg.bytes)
	}
	if !cfg.fresh {
		if err := r.reset(); err != nil {
			w.close()
			return nil, err
		}
	}
	if err := warmUp(r, cfg.warmups); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *directRunner) info() *world                  { return &r.w.world }
func (r *directRunner) samples() map[string][]float64 { return nil }

func (r *directRunner) reset() error {
	if r.cfg.fresh {
		return nil
	}
	if r.c != nil {
		closeSession(r.rec, r.c)
		r.c = nil
	}
	c, err := r.w.connect(r.rec, r.cfg.streams, r.cfg.prot)
	if err != nil {
		return err
	}
	r.c = c
	return nil
}

func (r *directRunner) renewDue(n int) bool { return r.cfg.renew > 0 && n%r.cfg.renew == 0 }

func (r *directRunner) op(n int) error {
	c := r.c
	if r.cfg.fresh {
		var err error
		if c, err = r.w.connect(r.rec, r.cfg.streams, r.cfg.prot); err != nil {
			return err
		}
	}
	if c == nil {
		return errors.New("no session")
	}
	var err error
	if r.cfg.put {
		err = r.rec.call("gridftp.put", func() error {
			_, err := c.Put(putPath(n), r.src)
			return err
		})
	} else {
		err = r.rec.call("gridftp.get", func() error {
			_, err := c.Get(stagedPath, r.sink)
			return err
		})
	}
	if r.cfg.fresh {
		closeSession(r.rec, c)
	}
	return err
}

func (r *directRunner) check(n int) (int64, error) {
	if !r.cfg.put {
		err := r.sink.verify(r.data)
		r.sink.wipe()
		if err != nil {
			return 0, err
		}
		return int64(len(r.data)), nil
	}
	// Read the fresh remote path back through the undecorated backend.
	p := putPath(n)
	defer r.w.raw.Remove(localUser, p)
	f, err := r.w.raw.Open(localUser, p)
	if err != nil {
		return 0, fmt.Errorf("verification: %w", err)
	}
	defer f.Close()
	clear(r.back)
	got, rerr := f.ReadAt(r.back, 0)
	if size, _ := f.Size(); size != int64(len(r.data)) {
		return 0, fmt.Errorf("verification: remote file has %d bytes, want %d", size, len(r.data))
	}
	if got != len(r.data) {
		return 0, fmt.Errorf("verification: read back %d of %d bytes: %v", got, len(r.data), rerr)
	}
	if err := sameBytes(r.back, r.data); err != nil {
		return 0, err
	}
	return int64(len(r.data)), nil
}

func (r *directRunner) close() {
	if r.c != nil {
		closeSession(r.rec, r.c)
		r.c = nil
	}
	r.w.close()
}

// ---- hosted_small_files ----

type hostedRunner struct {
	w     *hostedWorld
	rec   *recorder
	names []string
	files [][]byte
	total int64
	obs   map[string][]float64
}

const hostedSrcDir = "/src"

func hostedDst(n int) string { return fmt.Sprintf("/dst-%06d", n) }

func newHostedRunner(seed int64, sz sizes, rec *recorder) (runner, error) {
	w, err := newHostedWorld(rec)
	if err != nil {
		return nil, err
	}
	r := &hostedRunner{w: w, rec: rec, obs: map[string][]float64{}}
	for i, n := range hostedSizes(seed, sz.hostedFiles, sz.hostedLo, sz.hostedHi) {
		r.names = append(r.names, fmt.Sprintf("f%03d.bin", i))
		r.files = append(r.files, payload(seed, uint64(100+i), n))
		r.total += int64(n)
	}
	if err := r.setUp(); err != nil {
		w.close()
		return nil, err
	}
	return r, nil
}

// setUp is the paper's install → logon → first transfer: activate both
// endpoints through the service, log on as the user across a shaped hop
// (§IV.E, timed for myproxy.logon_*), stage the directory over a user
// session from an unshaped laptop link, then one warm-up task.
func (r *hostedRunner) setUp() error {
	w := r.w
	if err := w.activate(r.rec); err != nil {
		return err
	}
	conv := pam.PasswordConv(passwordA)
	if err := r.rec.call("myproxy.logon", func() error {
		_, err := w.epA.Logon(w.nw.Host("globusonline"), localUser, conv)
		return err
	}); err != nil {
		return fmt.Errorf("logon: %w", err)
	}
	var c *gridftp.Client
	if err := r.rec.call("gcmu.connect", func() (err error) {
		c, err = w.epA.Connect(w.nw.Host("laptop"), localUser, conv)
		return err
	}); err != nil {
		return fmt.Errorf("connect: %w", err)
	}
	err := c.Mkdir(hostedSrcDir)
	for i := 0; err == nil && i < len(r.files); i++ {
		err = r.rec.call("gridftp.put", func() error {
			_, err := c.Put(hostedSrcDir+"/"+r.names[i], sourceFile(r.files[i]))
			return err
		})
	}
	closeSession(r.rec, c)
	if err != nil {
		return fmt.Errorf("staging: %w", err)
	}
	return warmUp(r, 1)
}

func (r *hostedRunner) info() *world                  { return &r.w.world }
func (r *hostedRunner) samples() map[string][]float64 { return r.obs }
func (r *hostedRunner) reset() error                  { return nil } // the service dials per attempt
func (r *hostedRunner) renewDue(int) bool             { return false }
func (r *hostedRunner) close()                        { r.w.close() }

func (r *hostedRunner) op(n int) error {
	var task *transfer.Task
	submitted := time.Now()
	if err := r.rec.call("transfer.submit", func() (err error) {
		task, err = r.w.svc.Submit(localUser, "siteA", hostedSrcDir, "siteB", hostedDst(n))
		return err
	}); err != nil {
		return err
	}
	submitSeconds := time.Since(submitted).Seconds()
	var done *transfer.Task
	if err := r.rec.call("transfer.wait", func() (err error) {
		done, err = r.w.svc.Wait(task.ID, opTimeout)
		return err
	}); err != nil {
		return err
	}
	returned := time.Now()
	if done.Status != transfer.TaskSucceeded {
		return fmt.Errorf("task %s: %s (%s)", done.ID, done.Status, done.Error)
	}
	if n > 0 {
		add := func(k string, v float64) { r.obs[k] = append(r.obs[k], v) }
		add("transfer.submit_ms", submitSeconds*1e3)
		add("transfer.start_lag_ms", done.Started.Sub(submitted).Seconds()*1e3)
		add("transfer.wait_poll_lag_ms", returned.Sub(done.Finished).Seconds()*1e3)
		add("transfer.workers", float64(done.Workers))
		add("transfer.parallelism", float64(done.Parallelism))
		add("transfer.attempts_per_task", float64(done.Attempts))
		add("transfer.files_per_s", float64(done.CompletedFiles)/returned.Sub(submitted).Seconds())
	}
	return nil
}

func (r *hostedRunner) check(n int) (int64, error) {
	dir := hostedDst(n)
	raw := r.w.rawB
	defer func() {
		for _, name := range r.names {
			raw.Remove(localUser, dir+"/"+name)
		}
		raw.Remove(localUser, dir)
	}()
	listed, err := raw.List(localUser, dir)
	if err != nil {
		return 0, fmt.Errorf("verification: %w", err)
	}
	if len(listed) != len(r.names) {
		return 0, fmt.Errorf("verification: %d entries in %s, want %d", len(listed), dir, len(r.names))
	}
	for i, name := range r.names {
		f, err := raw.Open(localUser, dir+"/"+name)
		if err != nil {
			return 0, fmt.Errorf("verification: %w", err)
		}
		got, err := dsi.ReadAll(f)
		f.Close()
		if err != nil {
			return 0, fmt.Errorf("verification: %s: %w", name, err)
		}
		if err := sameBytes(got, r.files[i]); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	return r.total, nil
}
