package gridftp

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/leakcheck"
	"gridftp.dev/instant/internal/obs"
)

// windowFile is one file of a pipelined window: its name, what the source
// holds, and how its transfer ended.
type windowFile struct {
	name    string
	payload []byte
	done    bool
	err     error
}

// beginWindow puts n more files on the source and begins them back to back
// on pipe. Completions append the file's index to *order as they run.
// sabotage, if non-nil, sees each file between its creation and its begin.
func (p *tpPair) beginWindow(pipe *Pipeline, n int, opts ThirdPartyOptions, order *[]int, sabotage func(k int, name string)) []*windowFile {
	p.t.Helper()
	files := make([]*windowFile, n)
	for i := range files {
		k := p.files
		p.files++
		f := &windowFile{name: fmt.Sprintf("/f%03d.bin", k), payload: p.payload(k)}
		files[i] = f
		p.srcSite.putFile(p.t, f.name, f.payload)
		if sabotage != nil {
			sabotage(k, f.name)
		}
		if err := pipe.Begin(f.name, f.name, opts, func(_ *ThirdPartyResult, err error) {
			f.done, f.err = true, err
			*order = append(*order, k)
		}); err != nil {
			p.t.Fatalf("begin %s: %v", f.name, err)
		}
	}
	return files
}

// wantLanded asserts the file completed without error and the destination
// holds the source's bytes.
func (p *tpPair) wantLanded(f *windowFile) {
	p.t.Helper()
	if !f.done || f.err != nil {
		p.t.Fatalf("%s: done=%v err=%v", f.name, f.done, f.err)
	}
	if got := p.dstSite.readFile(p.t, f.name); !bytes.Equal(got, f.payload) {
		p.t.Fatalf("%s: destination differs from source (%d bytes, want %d)", f.name, len(got), len(f.payload))
	}
}

func wantOrder(t *testing.T, order []int, first, n int) {
	t.Helper()
	if len(order) != n {
		t.Fatalf("%d completions, want %d: %v", len(order), n, order)
	}
	for i, k := range order {
		if k != first+i {
			t.Fatalf("completions out of order: %v", order)
		}
	}
}

// TestPipelineWindowSharesDataPath: N files begun back to back — nothing
// read until all are written — complete in order, byte-exact, over the one
// data path the first of them wired.
func TestPipelineWindowSharesDataPath(t *testing.T) {
	const files = 8
	for _, tc := range []struct {
		name        string
		stripes     int
		parallelism int
	}{
		{"one stream", 0, 1},
		{"four streams", 0, 4},
		{"striped", 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newTPPair(t, tpPairOptions{stripes: tc.stripes})
			pipe := NewPipeline(p.src, p.dst)
			if err := pipe.SetParallelism(tc.parallelism); err != nil {
				t.Fatal(err)
			}
			striped := tc.stripes > 0
			var order []int
			window := p.beginWindow(pipe, files, ThirdPartyOptions{Striped: striped}, &order, nil)
			if got := pipe.InFlight(); got != files || len(order) != 0 {
				t.Fatalf("%d in flight and %d completed after %d begins: a begin on a wired pair read replies", got, len(order), files)
			}
			pipe.Drain()
			wantOrder(t, order, 0, files)
			for _, f := range window {
				p.wantLanded(f)
			}
			listen, connect := "PASV", "PORT"
			if striped {
				listen, connect = "SPAS", "SPOR"
			}
			if l, c := commandCount(p.dstObs, listen), commandCount(p.srcObs, connect); l != 1 || c != 1 {
				t.Errorf("%s sent %d times and %s %d times for %d files, want 1 each", listen, l, connect, c, files)
			}
			if got := p.interSiteConns(tc.stripes); got != int64(tc.parallelism) {
				t.Errorf("%d inter-site data connections for %d files, want %d", got, files, tc.parallelism)
			}
		})
	}
}

// TestPipelineWindowFailureResolvesEveryEntry fails file k of a window, at
// the source and at the destination. The servers drop their data path with
// the failed transfer, so everything queued behind it is refused at once:
// every entry resolves well inside DataTimeout, what completed before k is
// intact, and nothing at the destination holds another file's bytes.
func TestPipelineWindowFailureResolvesEveryEntry(t *testing.T) {
	const files, k = 8, 4 // the window is files 1..8; file k fails
	for _, tc := range []struct {
		name   string
		broken func(p *tpPair, name string) error
	}{
		{"missing at the source", func(p *tpPair, name string) error {
			return p.srcSite.storage.Remove("alice", name)
		}},
		{"uncreatable at the destination", func(p *tpPair, name string) error {
			return p.dstSite.storage.Mkdir("alice", name)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newTPPair(t, tpPairOptions{server: func(cfg *ServerConfig) { cfg.DataTimeout = 3 * time.Second }})
			p.transfer(ThirdPartyOptions{}) // file 0 wires the pair
			time.Sleep(200 * time.Millisecond)
			before := runtime.NumGoroutine()

			pipe := NewPipeline(p.src, p.dst)
			var order []int
			start := time.Now()
			window := p.beginWindow(pipe, files, ThirdPartyOptions{}, &order, func(n int, name string) {
				if n == k {
					if err := tc.broken(p, name); err != nil {
						t.Fatal(err)
					}
				}
			})
			if pipe.InFlight() != files {
				t.Fatalf("%d in flight after %d begins", pipe.InFlight(), files)
			}
			pipe.Drain()
			if took := time.Since(start); took > time.Second {
				t.Fatalf("window with a failed file took %v to resolve (want < 1s)", took)
			}
			wantOrder(t, order, 1, files)
			for i, f := range window {
				n := 1 + i
				if n < k {
					p.wantLanded(f)
					continue
				}
				if f.err == nil {
					t.Errorf("%s (queued at or behind the failed file) reported success", f.name)
				}
				// Whatever the destination holds under this name is a prefix
				// of this file — usually nothing — never a neighbour's bytes.
				fh, err := p.dstSite.storage.Open("alice", f.name)
				if err != nil {
					continue
				}
				got, _ := dsi.ReadAll(fh)
				fh.Close()
				if len(got) > len(f.payload) || !bytes.Equal(got, f.payload[:len(got)]) {
					t.Errorf("%s: destination holds %d bytes that are not this file's", f.name, len(got))
				}
			}

			// The pair un-wired itself: the next transfer negotiates again.
			p.transfer(ThirdPartyOptions{})
			if pasv := commandCount(p.dstObs, "PASV"); pasv != 2 {
				t.Errorf("PASV sent %d times, want 2 (the pair must re-wire after a failed window)", pasv)
			}
			if after := leakcheck.AtMost(before); after > before {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutines %d → %d across a failed window:\n%s", before, after, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// gatedStorage holds every write to one path until its gate opens.
type gatedStorage struct {
	dsi.Storage
	path string
	gate chan struct{}
}

func (g *gatedStorage) Create(user, p string) (dsi.File, error) {
	f, err := g.Storage.Create(user, p)
	if err != nil || p != g.path {
		return f, err
	}
	return &gatedFile{File: f, gate: g.gate}, nil
}

type gatedFile struct {
	dsi.File
	gate chan struct{}
}

func (f *gatedFile) WriteAt(b []byte, off int64) (int, error) {
	<-f.gate
	return f.File.WriteAt(b, off)
}

// TestPipelineWindowWithServerCacheOff: with the channel cache off at both
// servers every file of a window gets fresh connections, and the source —
// done with file i as soon as its bytes are on the wire — opens file i+1's
// while the destination is still receiving file i. The destination's first
// receive is held open (its storage write is gated) until that second
// connection exists. A receive that took every connection arriving while
// it runs would either land file 1's blocks in file 0 or close file 1's
// connection with its own; bounded to the negotiated parallelism it leaves
// the connection queued for the receive it belongs to, and every file
// lands byte-exact.
func TestPipelineWindowWithServerCacheOff(t *testing.T) {
	const files = 4
	gate := make(chan struct{})
	p := newTPPair(t, tpPairOptions{server: func(cfg *ServerConfig) {
		cfg.DisableChannelCache = true
		cfg.DataTimeout = 3 * time.Second
		if cfg.EndpointName == "siteB" {
			cfg.Storage = &gatedStorage{Storage: cfg.Storage, path: "/f000.bin", gate: gate}
		}
	}})
	pipe := NewPipeline(p.src, p.dst)
	var order []int
	window := p.beginWindow(pipe, files, ThirdPartyOptions{}, &order, nil)
	if pipe.InFlight() != files {
		t.Fatalf("%d in flight after %d begins", pipe.InFlight(), files)
	}
	deadline := time.Now().Add(5 * time.Second)
	for p.interSiteConns(0) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("the source never opened file 1's connection while file 0 was being received (%d connections)", p.interSiteConns(0))
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	pipe.Drain()
	wantOrder(t, order, 0, files)
	for _, f := range window {
		if f.err != nil {
			t.Errorf("%s: %v", f.name, f.err)
			continue
		}
		if got := p.dstSite.readFile(t, f.name); !bytes.Equal(got, f.payload) {
			t.Errorf("%s reported success, but the destination holds %d bytes that differ from the %d sent", f.name, len(got), len(f.payload))
		}
	}
	if got := p.interSiteConns(0); got != files {
		t.Errorf("%d inter-site connections for %d files with the server cache off, want %d", got, files, files)
	}
}

// TestPipelineDrainsBeforeRoundTrips: a begin that has to send a command
// with a reply of its own — REST for a resumed file, PASV/PORT after a
// negotiation change — and a negotiation change itself first complete
// everything in flight, in order, so no such command is ever written behind
// a transfer whose replies it would read as its own.
func TestPipelineDrainsBeforeRoundTrips(t *testing.T) {
	p := newTPPair(t, tpPairOptions{})
	pipe := NewPipeline(p.src, p.dst)
	var order []int
	all := p.beginWindow(pipe, 3, ThirdPartyOptions{}, &order, nil)
	if pipe.InFlight() != 3 {
		t.Fatalf("%d in flight after 3 begins", pipe.InFlight())
	}

	// A resumed file: the destination already holds its first 10000 bytes.
	resumed := p.payload(p.files)
	p.dstSite.putFile(t, fmt.Sprintf("/f%03d.bin", p.files), resumed[:10000])
	all = append(all, p.beginWindow(pipe, 1, ThirdPartyOptions{Restart: []Range{{0, 10000}}}, &order, nil)...)
	wantOrder(t, order, 0, 3)
	if pipe.InFlight() != 1 {
		t.Fatalf("%d in flight after a begin with restart markers, want 1 (itself)", pipe.InFlight())
	}

	all = append(all, p.beginWindow(pipe, 2, ThirdPartyOptions{}, &order, nil)...)
	if pipe.InFlight() != 3 {
		t.Fatalf("%d in flight, want 3", pipe.InFlight())
	}
	if err := pipe.SetParallelism(4); err != nil {
		t.Fatal(err)
	}
	wantOrder(t, order, 0, 6)
	if pipe.InFlight() != 0 {
		t.Fatalf("%d still in flight after a parallelism change", pipe.InFlight())
	}
	if err := pipe.SetParallelism(4); err != nil || pipe.InFlight() != 0 {
		t.Fatalf("renegotiating the value in effect: err=%v", err)
	}

	all = append(all, p.beginWindow(pipe, 2, ThirdPartyOptions{}, &order, nil)...)
	if pipe.InFlight() != 2 {
		t.Fatalf("%d in flight after two begins at the new parallelism, want 2", pipe.InFlight())
	}
	if err := pipe.SetParallelism(4); err != nil || pipe.InFlight() != 2 {
		t.Fatalf("asking for the parallelism in effect drained the window (err=%v, %d in flight)", err, pipe.InFlight())
	}
	pipe.Drain()
	wantOrder(t, order, 0, 8)
	for _, f := range all {
		p.wantLanded(f)
	}
	// Both control channels are in step: a command gets its own reply.
	for _, c := range []*Client{p.src, p.dst} {
		if err := c.Noop(); err != nil {
			t.Fatalf("control channel out of step after the windows: %v", err)
		}
	}
	// One wiring at each parallelism; the resumed file reused the first.
	if pasv := commandCount(p.dstObs, "PASV"); pasv != 2 {
		t.Errorf("PASV sent %d times, want 2", pasv)
	}
}

// flights reads how many times a client has turned from writing to waiting.
func flights(o *obs.Obs) int64 { return o.Metrics.Counter("gridftp.client.flights").Value() }

// TestPipelineMkdirsAheadOfTheFirstStor: the directories a window lands in
// are asked for and not waited for. On a pair that still has to wire, their
// replies come back with the PASV; on a wired pair, with the first STOR's —
// the destination is waited for once for the MKDs and every file behind them.
// A directory that exists refuses its MKD and the STOR under it does not care.
func TestPipelineMkdirsAheadOfTheFirstStor(t *testing.T) {
	p := newTPPair(t, tpPairOptions{})
	pipe := NewPipeline(p.src, p.dst)
	begin := func(dstPath string) *windowFile {
		t.Helper()
		f := &windowFile{name: dstPath, payload: p.payload(p.files)}
		src := fmt.Sprintf("/src%03d.bin", p.files)
		p.files++
		p.srcSite.putFile(t, src, f.payload)
		if err := pipe.Begin(src, dstPath, ThirdPartyOptions{}, func(_ *ThirdPartyResult, err error) { f.done, f.err = true, err }); err != nil {
			t.Fatalf("begin %s: %v", dstPath, err)
		}
		return f
	}

	before, owed := flights(p.dstObs), len(p.dst.owed) // DELG's 200
	if _, err := pipe.Mkdirs([]string{"/out", "/out/a", "/out/a/b"}); err != nil {
		t.Fatal(err)
	}
	if got := flights(p.dstObs) - before; got != 0 || len(p.dst.owed) != owed+3 {
		t.Fatalf("after Mkdirs: %d flights waited for and %d more replies owed, want 0 and 3", got, len(p.dst.owed)-owed)
	}
	first := begin("/out/a/b/deep.bin") // wires the pair: MKD MKD MKD PASV is one flight
	if got := flights(p.dstObs) - before; got != 1 || len(p.dst.owed) != 0 {
		t.Fatalf("after the first begin: %d destination flights and %d owed, want 1 (the MKDs and PASV together) and 0", got, len(p.dst.owed))
	}
	pipe.Drain()
	p.wantLanded(first)

	// Wired: two more directories, one of which exists, and a file into each.
	before = flights(p.dstObs)
	if _, err := pipe.Mkdirs([]string{"/out", "/more"}); err != nil {
		t.Fatal(err)
	}
	window := []*windowFile{begin("/out/again.bin"), begin("/more/new.bin"), begin("/out/a/third.bin")}
	if pipe.InFlight() != 3 || flights(p.dstObs) != before {
		t.Fatalf("%d in flight and %d flights waited for after three begins on a wired pair", pipe.InFlight(), flights(p.dstObs)-before)
	}
	pipe.Drain()
	for _, f := range window {
		p.wantLanded(f)
	}
	if got := flights(p.dstObs) - before; got != 1 {
		t.Errorf("two MKDs and three STORs cost the destination %d flights, want 1", got)
	}
	if len(pipe.refused) != 0 {
		t.Errorf("refusals still unjudged after files landed under them: %v", pipe.refused)
	}
	if mkd, mlst := commandCount(p.dstObs, "MKD"), commandCount(p.dstObs, "MLST"); mkd != 5 || mlst != 0 {
		t.Errorf("%d MKD and %d MLST, want 5 and 0", mkd, mlst)
	}
}

// TestPipelineRefusedMkdirIsJudgedByItsStor: where a directory should go the
// destination has a regular file. Nothing fails until the STOR under it does;
// that transfer's error names the directory and carries both refusals,
// everything queued behind it is refused at once (S2), the pair un-wires, and
// the channels are in step for what comes next.
func TestPipelineRefusedMkdirIsJudgedByItsStor(t *testing.T) {
	p := newTPPair(t, tpPairOptions{})
	p.transfer(ThirdPartyOptions{}) // wires the pair
	p.dstSite.putFile(t, "/blocked", []byte("a file where a directory should go"))
	p.srcSite.putFile(t, "/one.bin", pattern(30000))

	pipe := NewPipeline(p.src, p.dst)
	if _, err := pipe.Mkdirs([]string{"/blocked", "/blocked/sub"}); err != nil {
		t.Fatalf("Mkdirs: %v (a refused MKD is not Mkdirs' error)", err)
	}
	var errs []error
	for _, dst := range []string{"/blocked/sub/one.bin", "/blocked/two.bin", "/elsewhere.bin"} {
		if err := pipe.Begin("/one.bin", dst, ThirdPartyOptions{}, func(_ *ThirdPartyResult, err error) { errs = append(errs, err) }); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	pipe.Drain()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("the window took %v to resolve", took)
	}
	if len(errs) != 3 || errs[0] == nil || errs[1] == nil || errs[2] == nil {
		t.Fatalf("outcomes %v, want three failures", errs)
	}
	var re *ftp.ReplyError
	if msg := errs[0].Error(); !strings.Contains(msg, "MKD /blocked was refused") || !errors.As(errs[0], &re) || re.Reply.Code != ftp.CodeFileUnavailable {
		t.Errorf("the first failure does not name the outermost refused directory and wrap the STOR's 550: %v", errs[0])
	}
	if strings.Contains(errs[2].Error(), "MKD") {
		t.Errorf("a file under no refused directory blames one: %v", errs[2])
	}
	if wired(p.src, p.dst, false) {
		t.Error("the pair is still wired after a refused STOR")
	}
	for _, c := range []*Client{p.src, p.dst} {
		if err := c.Noop(); err != nil {
			t.Fatalf("control channel out of step: %v", err)
		}
	}
	p.transfer(ThirdPartyOptions{})
}
