package main

import (
	"crypto/x509"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gridftp.dev/instant/internal/authz"
	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
)

// Layer probes: short loops over one layer's public functions, each value
// the median of env.reps repetitions. They price a layer on its own so an
// end-to-end number can be read against it — above all against
// netsim.raw_conn_MBps, the simulator's own ceiling.

type probeEnv struct {
	reps   int
	bulk   int    // bytes moved per repetition of a throughput probe
	tmpDir string // for the posix backend; inside the checkout
}

type probe struct {
	name string
	// paced probes spend their time asleep in the simulator (they count
	// round trips on a shaped link), so they run side by side; the rest are
	// CPU-bound or count allocations and run alone, one after another.
	paced bool
	run   func(env *probeEnv, out map[string]float64) error
}

var probes = []probe{
	{"netsim.dial", true, probeDial},
	{"netsim.stream_cap", true, probeStreamCap},
	{"gsi.handshake_rtts", true, probeHandshakeRTTs},
	{"gridftp.rtts", true, probeGridftpRTTs},
	{"netsim.raw_conn", false, probeRawConn},
	{"ftp", false, probeFTP},
	{"gsi.cpu", false, probeGSI},
	{"gsi.tls_stream", false, probeTLSStream},
	{"gridftp.modee_loop", false, probeModeELoop},
	{"gridftp.prot", false, probeProt},
	{"dsi", false, probeDSI},
	{"authz+pam", false, probeAuthzPAM},
}

// runProbes runs every probe and returns its metrics.
func runProbes(reps int, sz sizes, outDir string) (map[string]float64, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(outDir, "probe-posix-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	env := &probeEnv{reps: reps, bulk: sz.lan, tmpDir: tmp}
	out := map[string]float64{}

	var mu sync.Mutex
	var wg sync.WaitGroup
	var firstErr error
	for _, p := range probes {
		if !p.paced {
			continue
		}
		wg.Add(1)
		go func(p probe) {
			defer wg.Done()
			local := map[string]float64{}
			err := p.run(env, local)
			mu.Lock()
			defer mu.Unlock()
			for k, v := range local {
				out[k] = v
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("probe %s: %w", p.name, err)
			}
		}(p)
	}
	wg.Wait()
	if firstErr != nil {
		return out, firstErr
	}
	for _, p := range probes {
		if p.paced {
			continue
		}
		runtime.GC()
		if err := p.run(env, out); err != nil {
			return out, fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	return out, nil
}

// medianOf runs f reps times and returns the median of what it returns.
func medianOf(reps int, f func() (float64, error)) (float64, error) {
	vals := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		v, err := f()
		if err != nil {
			return 0, err
		}
		vals = append(vals, v)
	}
	return median(vals), nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func mbps(bytes int, d time.Duration) float64 { return float64(bytes) / d.Seconds() / 1e6 }

// connPair returns both ends of one simulated connection a→b.
func connPair(nw *netsim.Network, a, b string) (client, server net.Conn, err error) {
	l, err := nw.Host(b).Listen(0)
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := l.Accept()
		ch <- accepted{c, err}
	}()
	client, err = nw.Host(a).Dial(l.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	acc := <-ch
	if acc.err != nil {
		client.Close()
		return nil, nil, acc.err
	}
	return client, acc.c, nil
}

// pump writes total bytes to w in block-sized writes while the caller reads
// them from the other end; it returns the time until the last byte is read.
func pump(w io.Writer, r io.Reader, total, block int) (time.Duration, error) {
	src := make([]byte, block)
	dst := make([]byte, block)
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		for sent := 0; sent < total; sent += block {
			if _, err := w.Write(src); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for got := 0; got < total; {
		n, err := r.Read(dst)
		if err != nil {
			return 0, err
		}
		got += n
	}
	elapsed := time.Since(start)
	return elapsed, <-errc
}

// ---- netsim ----

// A throughput probe opens a new connection (or session) for every
// repetition: on two cores a pipeline's speed depends on where its
// goroutines happened to land, and that sticks for the connection's life, so
// ten repetitions over one connection would be one sample of it.

func probeRawConn(env *probeEnv, out map[string]float64) error {
	nw := netsim.NewNetwork()
	var err error
	out["netsim.raw_conn_MBps"], err = medianOf(env.reps, func() (float64, error) {
		c, s, err := connPair(nw, "a", "b")
		if err != nil {
			return 0, err
		}
		defer c.Close()
		defer s.Close()
		d, err := pump(c, s, env.bulk, gridftp.DefaultBlockSize)
		return mbps(env.bulk, d), err
	})
	return err
}

func probeDial(env *probeEnv, out map[string]float64) error {
	nw := netsim.NewNetwork()
	nw.SetLink("a", "b", refWAN)
	l, err := nw.Host("b").Listen(0)
	if err != nil {
		return err
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	out["netsim.dial_rtts"], err = medianOf(env.reps, func() (float64, error) {
		start := time.Now()
		c, err := nw.Host("a").Dial(l.Addr().String())
		if err != nil {
			return 0, err
		}
		rtts := time.Since(start).Seconds() / refWAN.RTT.Seconds()
		c.Close()
		return rtts, nil
	})
	return err
}

// probeStreamCap sends half a megabyte down one window-limited stream of
// the reference WAN and reports achieved rate ÷ LinkParams.StreamCap.
func probeStreamCap(env *probeEnv, out map[string]float64) error {
	nw := netsim.NewNetwork()
	nw.SetLink("a", "b", refWAN)
	c, s, err := connPair(nw, "a", "b")
	if err != nil {
		return err
	}
	defer c.Close()
	defer s.Close()
	const total = 512 << 10
	out["netsim.stream_cap_ratio"], err = medianOf(env.reps, func() (float64, error) {
		d, err := pump(c, s, total, 64<<10)
		return float64(total) / d.Seconds() / refWAN.StreamCap(), err
	})
	return err
}

// ---- ftp ----

func probeFTP(env *probeEnv, out map[string]float64) error {
	c, s, err := connPair(netsim.NewNetwork(), "a", "b")
	if err != nil {
		return err
	}
	client, server := ftp.NewConn(c), ftp.NewConn(s)
	defer client.Close()
	defer server.Close()
	go func() {
		for {
			if _, err := server.ReadCommand(); err != nil {
				return
			}
			if server.WriteReply(ftp.CodeOK, "NOOP ok") != nil {
				return
			}
		}
	}()
	const trips = 200
	noop := ftp.Command{Name: "NOOP"}
	var allocs []float64
	out["ftp.roundtrip_us"], err = medianOf(env.reps, func() (float64, error) {
		m0 := mallocs()
		start := time.Now()
		for i := 0; i < trips; i++ {
			if err := client.WriteCommand(noop); err != nil {
				return 0, err
			}
			if _, err := client.ReadReply(); err != nil {
				return 0, err
			}
		}
		elapsed := time.Since(start)
		allocs = append(allocs, float64(mallocs()-m0)/trips)
		return elapsed.Seconds() * 1e6 / trips, nil
	})
	if err != nil {
		return err
	}
	out["ftp.roundtrip_allocs"] = median(allocs)

	const parses = 20000
	out["ftp.parse_command_ns"], err = medianOf(env.reps, func() (float64, error) {
		start := time.Now()
		for i := 0; i < parses; i++ {
			if _, err := ftp.ParseCommand("RETR /data/run-0042/part-00017.bin"); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / parses, nil
	})
	return err
}

// ---- gsi ----

// gsiFixture is a CA, a host credential, a user proxy and the trust store.
type gsiFixture struct {
	host, user, proxy *gsi.Credential
	trust             *gsi.TrustStore
}

func newGSIFixture() (*gsiFixture, error) {
	ca, err := gsi.NewCA("/O=Grid/OU=probe/CN=CA", 24*time.Hour)
	if err != nil {
		return nil, err
	}
	host, err := ca.Issue(gsi.IssueOptions{Subject: "/O=Grid/OU=probe/CN=host-probe", Lifetime: time.Hour, Host: true})
	if err != nil {
		return nil, err
	}
	user, err := ca.Issue(gsi.IssueOptions{Subject: "/O=Grid/OU=probe/CN=alice", Lifetime: time.Hour})
	if err != nil {
		return nil, err
	}
	proxy, err := gsi.NewProxy(user, gsi.ProxyOptions{})
	if err != nil {
		return nil, err
	}
	trust := gsi.NewTrustStore()
	if err := trust.AddCA(ca.Certificate()); err != nil {
		return nil, err
	}
	return &gsiFixture{host: host, user: user, proxy: proxy, trust: trust}, nil
}

// handshake runs one mutual GSI handshake over a fresh connection of nw and
// returns both secured ends and the time until both held a verified peer.
func (fx *gsiFixture) handshake(nw *netsim.Network) (client, server net.Conn, d time.Duration, err error) {
	c, s, err := connPair(nw, "a", "b")
	if err != nil {
		return nil, nil, 0, err
	}
	type result struct {
		conn net.Conn
		err  error
	}
	ch := make(chan result, 1)
	start := time.Now()
	go func() {
		tc, _, err := gsi.HandshakeServer(s, fx.host, fx.trust)
		ch <- result{tc, err}
	}()
	tc, _, cerr := gsi.HandshakeClient(c, fx.proxy, fx.trust)
	sr := <-ch
	d = time.Since(start)
	if cerr != nil || sr.err != nil {
		c.Close()
		s.Close()
		if cerr == nil {
			cerr = sr.err
		}
		return nil, nil, 0, cerr
	}
	return tc, sr.conn, d, nil
}

func probeHandshakeRTTs(env *probeEnv, out map[string]float64) error {
	fx, err := newGSIFixture()
	if err != nil {
		return err
	}
	nw := netsim.NewNetwork()
	nw.SetLink("a", "b", refWAN)
	out["gsi.handshake_rtts"], err = medianOf(env.reps, func() (float64, error) {
		c, s, d, err := fx.handshake(nw)
		if err != nil {
			return 0, err
		}
		c.Close()
		s.Close()
		return d.Seconds() / refWAN.RTT.Seconds(), nil
	})
	return err
}

func probeGSI(env *probeEnv, out map[string]float64) error {
	fx, err := newGSIFixture()
	if err != nil {
		return err
	}
	const batch = 5
	out["gsi.new_proxy_ms"], err = medianOf(env.reps, func() (float64, error) {
		start := time.Now()
		for i := 0; i < batch; i++ {
			if _, err := gsi.NewProxy(fx.user, gsi.ProxyOptions{}); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds() * 1e3 / batch, nil
	})
	if err != nil {
		return err
	}

	// Handshake cost with the wire taken out: both ends on an unshaped link,
	// CPU from getrusage, allocations from the runtime — per handshake, both
	// ends together.
	nw := netsim.NewNetwork()
	var allocs []float64
	out["gsi.handshake_cpu_ms"], err = medianOf(env.reps, func() (float64, error) {
		m0, cpu0 := mallocs(), cpuSeconds()
		for i := 0; i < batch; i++ {
			c, s, _, err := fx.handshake(nw)
			if err != nil {
				return 0, err
			}
			c.Close()
			s.Close()
		}
		cpu := cpuSeconds() - cpu0
		allocs = append(allocs, float64(mallocs()-m0)/batch)
		return cpu * 1e3 / batch, nil
	})
	if err != nil {
		return err
	}
	out["gsi.handshake_allocs"] = median(allocs)

	chain := append([]*x509.Certificate{fx.proxy.Cert}, fx.proxy.Chain...)
	now := time.Now()
	const verifies = 20
	cold := make([]*gsi.TrustStore, verifies)
	out["gsi.verify_cold_us"], err = medianOf(env.reps, func() (float64, error) {
		for i := range cold {
			cold[i] = fx.trust.Clone() // a clone starts with an empty memo
		}
		start := time.Now()
		for _, t := range cold {
			if _, err := t.Verify(chain, now); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds() * 1e6 / verifies, nil
	})
	if err != nil {
		return err
	}
	out["gsi.verify_memo_us"], err = medianOf(env.reps, func() (float64, error) {
		start := time.Now()
		for i := 0; i < verifies*10; i++ {
			if _, err := fx.trust.Verify(chain, now); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds() * 1e6 / (verifies * 10), nil
	})
	if err != nil {
		return err
	}

	c, s, err := connPair(nw, "a", "b")
	if err != nil {
		return err
	}
	defer c.Close()
	defer s.Close()
	out["gsi.delegate_ms"], err = medianOf(env.reps, func() (float64, error) {
		errc := make(chan error, 1)
		start := time.Now()
		go func() { errc <- gsi.Delegate(c, fx.proxy, time.Hour) }()
		if _, err := gsi.AcceptDelegation(s); err != nil {
			return 0, err
		}
		if err := <-errc; err != nil {
			return 0, err
		}
		return time.Since(start).Seconds() * 1e3, nil
	})
	return err
}

func probeTLSStream(env *probeEnv, out map[string]float64) error {
	fx, err := newGSIFixture()
	if err != nil {
		return err
	}
	nw := netsim.NewNetwork()
	out["gsi.tls_stream_MBps"], err = medianOf(env.reps, func() (float64, error) {
		c, s, _, err := fx.handshake(nw)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		defer s.Close()
		d, err := pump(c, s, env.bulk, gridftp.DefaultBlockSize)
		return mbps(env.bulk, d), err
	})
	return err
}

// ---- gridftp ----

// probeGridftpRTTs counts round trips on the reference WAN, one stream, a
// new session per repetition: a NOOP, the session's first GET of an empty
// file (listener, PORT, data-channel connect and handshake — everything but
// bytes) and its second (channel cached). The difference between the two
// GETs is what data-channel establishment costs.
func probeGridftpRTTs(env *probeEnv, out map[string]float64) error {
	w, err := newDirectWorld(refWAN, nil)
	if err != nil {
		return err
	}
	defer w.close()
	f, err := w.raw.Create(localUser, "/empty")
	if err != nil {
		return err
	}
	f.Close()
	var noop, fresh, cached []float64
	for i := 0; i < env.reps; i++ {
		c, err := w.connect(nil, 1, gridftp.ProtClear)
		if err != nil {
			return err
		}
		for _, step := range []struct {
			into *[]float64
			f    func() error
		}{
			{&noop, c.Noop},
			{&fresh, func() error { _, err := c.Get("/empty", sinkFile(0)); return err }},
			{&cached, func() error { _, err := c.Get("/empty", sinkFile(0)); return err }},
		} {
			start := time.Now()
			if err := step.f(); err != nil {
				c.Close()
				return err
			}
			*step.into = append(*step.into, time.Since(start).Seconds()/refWAN.RTT.Seconds())
		}
		c.Close()
	}
	out["gridftp.noop_rtts"] = median(noop)
	out["gridftp.get_empty_fresh_rtts"] = median(fresh)
	out["gridftp.get_empty_cached_rtts"] = median(cached)
	return nil
}

// probeModeELoop runs the exported MODE E block primitives over one
// unshaped connection: WriteBlock from a pooled buffer on one end,
// ReadBlock into a pooled lease on the other.
func probeModeELoop(env *probeEnv, out map[string]float64) error {
	nw := netsim.NewNetwork()
	pool := gridftp.NewBufferPool(gridftp.DefaultBlockSize)
	blocks := env.bulk / pool.Size()
	if blocks < 1 {
		blocks = 1
	}
	total := blocks * pool.Size()
	var allocs []float64
	var err error
	out["gridftp.modee_loop_MBps"], err = medianOf(env.reps, func() (float64, error) {
		c, s, err := connPair(nw, "a", "b")
		if err != nil {
			return 0, err
		}
		defer c.Close()
		defer s.Close()
		m0 := mallocs()
		start := time.Now()
		errc := make(chan error, 1)
		go func() {
			for i := 0; i < blocks; i++ {
				buf := pool.Lease()
				err := gridftp.WriteBlock(c, &gridftp.Block{
					Desc: gridftp.DescRestartable, Count: uint64(len(buf)), Offset: uint64(i * len(buf)), Data: buf,
				})
				pool.Release(buf)
				if err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}()
		lease := pool.Lease()
		for i := 0; i < blocks; i++ {
			var err error
			if _, lease, err = gridftp.ReadBlock(s, lease, uint64(pool.Size())); err != nil {
				return 0, err
			}
		}
		pool.Release(lease)
		elapsed := time.Since(start)
		if err := <-errc; err != nil {
			return 0, err
		}
		allocs = append(allocs, float64(mallocs()-m0)/(float64(total)/1e6))
		return mbps(total, elapsed), nil
	})
	if err != nil {
		return err
	}
	out["gridftp.modee_loop_allocs_per_MB"] = median(allocs)
	return nil
}

// probeProt is E3 as a layer probe: the same 2-stream GET at each data
// channel protection level over an unshaped link.
func probeProt(env *probeEnv, out map[string]float64) error {
	w, err := newDirectWorld(netsim.LinkParams{}, nil)
	if err != nil {
		return err
	}
	defer w.close()
	data := payload(1, 2, env.bulk)
	f, err := w.raw.Create(localUser, stagedPath)
	if err == nil {
		err = dsi.WriteAll(f, data)
		f.Close()
	}
	if err != nil {
		return err
	}
	sink := sinkFile(env.bulk)
	for _, p := range []struct {
		metric string
		level  gridftp.ProtLevel
	}{
		{"gridftp.prot_clear_MBps", gridftp.ProtClear},
		{"gridftp.prot_safe_MBps", gridftp.ProtSafe},
		{"gridftp.prot_private_MBps", gridftp.ProtPrivate},
	} {
		out[p.metric], err = medianOf(env.reps, func() (float64, error) {
			c, err := w.connect(nil, 2, p.level)
			if err != nil {
				return 0, err
			}
			defer c.Close()
			if _, err := c.Get(stagedPath, sink); err != nil { // establishes the channels
				return 0, err
			}
			// A session's second GET is not yet its steady state; take the
			// middle one of three.
			return medianOf(3, func() (float64, error) {
				sink.wipe()
				start := time.Now()
				if _, err := c.Get(stagedPath, sink); err != nil {
					return 0, err
				}
				rate := mbps(env.bulk, time.Since(start))
				return rate, sink.verify(data)
			})
		})
		if err != nil {
			return fmt.Errorf("%s: %w", p.metric, err)
		}
	}
	return nil
}

// ---- dsi ----

func probeDSI(env *probeEnv, out map[string]float64) error {
	block := make([]byte, gridftp.DefaultBlockSize)
	writeAll := func(f dsi.File, total int) error {
		if p, ok := f.(interface{ Preallocate(int64) }); ok {
			p.Preallocate(int64(total)) // the server does, from ALLO
		}
		for off := 0; off < total; off += len(block) {
			if _, err := f.WriteAt(block, int64(off)); err != nil {
				return err
			}
		}
		return f.Close()
	}
	readAll := func(f dsi.File, total int) error {
		for off := 0; off < total; off += len(block) {
			if _, err := f.ReadAt(block, int64(off)); err != nil && err != io.EOF {
				return err
			}
		}
		return f.Close()
	}
	storage := func(prefix string, s dsi.Storage, total int) error {
		var err error
		out[prefix+"_write_MBps"], err = medianOf(env.reps, func() (float64, error) {
			start := time.Now()
			f, err := s.Create(localUser, "/probe.bin")
			if err != nil {
				return 0, err
			}
			if err := writeAll(f, total); err != nil {
				return 0, err
			}
			return mbps(total, time.Since(start)), nil
		})
		if err != nil {
			return err
		}
		out[prefix+"_read_MBps"], err = medianOf(env.reps, func() (float64, error) {
			start := time.Now()
			f, err := s.Open(localUser, "/probe.bin")
			if err != nil {
				return 0, err
			}
			if err := readAll(f, total); err != nil {
				return 0, err
			}
			return mbps(total, time.Since(start)), nil
		})
		return err
	}
	total := env.bulk / len(block) * len(block)
	if total == 0 {
		total = len(block)
	}
	mem := dsi.NewMemStorage()
	mem.AddUser(localUser)
	if err := storage("dsi.mem", mem, total); err != nil {
		return err
	}
	posix, err := dsi.NewPosixStorage(filepath.Join(env.tmpDir, "posix"))
	if err == nil {
		err = posix.AddUser(localUser)
	}
	if err != nil {
		return err
	}
	if err := storage("dsi.posix", posix, total); err != nil {
		return err
	}
	out["dsi.buffer_write_MBps"], err = medianOf(env.reps, func() (float64, error) {
		start := time.Now()
		if err := writeAll(dsi.NewBufferFile(nil), total); err != nil {
			return 0, err
		}
		return mbps(total, time.Since(start)), nil
	})
	return err
}

// ---- authz, pam ----

func probeAuthzPAM(env *probeEnv, out map[string]float64) error {
	gm := authz.NewGridmap()
	for i := 0; i < 1000; i++ {
		gm.AddEntry(gsi.DN(fmt.Sprintf("/O=Grid/OU=probe/CN=user%04d", i)), fmt.Sprintf("u%04d", i))
	}
	id := &gsi.VerifiedIdentity{Identity: "/O=Grid/OU=probe/CN=user0500"}
	const maps = 20000
	var err error
	out["authz.gridmap_map_ns"], err = medianOf(env.reps, func() (float64, error) {
		start := time.Now()
		for i := 0; i < maps; i++ {
			if _, err := gm.Map(id); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / maps, nil
	})
	if err != nil {
		return err
	}

	dir := pam.NewLDAPDirectory("dc=probe")
	dir.AddEntry(localUser, "pw")
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: localUser})
	stack := pam.NewStack("myproxy", accounts, pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}})
	conv := pam.PasswordConv("pw")
	const auths = 200
	out["pam.authenticate_us"], err = medianOf(env.reps, func() (float64, error) {
		start := time.Now()
		for i := 0; i < auths; i++ {
			if _, err := stack.Authenticate(localUser, conv); err != nil {
				return 0, err
			}
		}
		return time.Since(start).Seconds() * 1e6 / auths, nil
	})
	return err
}
