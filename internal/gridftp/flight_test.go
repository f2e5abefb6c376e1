package gridftp

import (
	"bytes"
	"crypto/ecdsa"
	"encoding/base64"
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/leakcheck"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

// scriptedServer is a fake server end for the client's flights: an ftp.Conn
// over netsim that answers the commands of a fresh-session GET and of a task's
// plan the way the real server does — DELG takes a proxy over its key, RETR
// dials the PORT address and sends MODE E over this package's own data path,
// MLST and MLSC answer from files and listings — except that the first command
// of a verb named in refuse is answered with that code. The control channel
// is cleartext and the data channels run DCAU N, so the fake needs no
// credential of its own.
type scriptedServer struct {
	ctrl  *ftp.Conn
	files map[string][]byte
	// listings holds the fact lines MLSC answers a directory with, as sent:
	// what a listing may say is the script's to decide. Set before the
	// first command is.
	listings map[string][]string
	data     dataPath
	done     chan struct{}
	// delegKey is what a real session generates at login.
	delegKey *ecdsa.PrivateKey

	mu     sync.Mutex
	refuse map[string]int
	lines  []string // the commands seen, parameters included
	par    int
}

// newScriptedSession connects a Client to a scriptedServer over a 20 ms link.
func newScriptedSession(t *testing.T, files map[string][]byte) (*Client, *scriptedServer) {
	t.Helper()
	return newScriptedSessionOver(t, files, 20*time.Millisecond)
}

// newScriptedSessionOver is newScriptedSession with the link's round trip
// given. The Client is built the way Dial leaves one (MODE E negotiated),
// minus the TLS exchange.
func newScriptedSessionOver(t *testing.T, files map[string][]byte, rtt time.Duration) (*Client, *scriptedServer) {
	t.Helper()
	nw := netsim.NewNetwork()
	nw.SetLink("laptop", "fake", netsim.LinkParams{Bandwidth: 100e6, RTT: rtt, StreamWindow: 1 << 20})
	l, err := nw.Host("fake").Listen(DefaultPort)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, _ := l.Accept()
		accepted <- conn
	}()
	raw, err := nw.Host("laptop").Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	key, pubDER, err := gsi.NewDelegationKey()
	if err != nil {
		t.Fatal(err)
	}
	srv := &scriptedServer{
		ctrl: ftp.NewConn(<-accepted), files: files, done: make(chan struct{}), delegKey: key,
		data:   dataPath{dialFrom: []*netsim.Host{nw.Host("fake")}, wait: 3 * time.Second, cache: true},
		refuse: map[string]int{}, par: 1,
	}
	go srv.serve()

	user := testSecurity(t, "alice")
	c := &Client{
		ctrl: ftp.NewConn(raw), host: nw.Host("laptop"), cred: user.Cred, trust: user.Trust, delegKey: pubDER,
		spec:      ChannelSpec{Mode: ModeExtended, DCAU: DCAUNone}.Normalize(),
		perfBytes: make(map[int]int64),
		data:      newClientDataPath(nw.Host("laptop"), DialOptions{}),
	}
	t.Cleanup(func() {
		c.Close()
		<-srv.done
	})
	return c, srv
}

func (s *scriptedServer) refuseNext(verb string, code int) {
	s.mu.Lock()
	s.refuse[verb] = code
	s.mu.Unlock()
}

// commandLines returns the commands seen since the last call, parameters
// included.
func (s *scriptedServer) commandLines() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	lines := s.lines
	s.lines = nil
	return lines
}

// commands returns the verbs seen since the last call.
func (s *scriptedServer) commands() string {
	lines := s.commandLines()
	for i, line := range lines {
		lines[i], _, _ = strings.Cut(line, " ")
	}
	return strings.Join(lines, " ")
}

func (s *scriptedServer) serve() {
	defer close(s.done)
	defer s.data.reset()
	defer s.ctrl.Close()
	for {
		cmd, err := s.ctrl.ReadCommand()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.lines = append(s.lines, cmd.String())
		refused := s.refuse[cmd.Name]
		delete(s.refuse, cmd.Name)
		s.mu.Unlock()
		switch cmd.Name {
		case "DELG":
			bundle, _ := base64.StdEncoding.DecodeString(cmd.Params)
			if _, err := gsi.AcceptBundle(s.delegKey, bundle); err != nil && refused == 0 {
				refused = ftp.CodeParamSyntaxError
			}
			if refused != 0 {
				s.ctrl.WriteReply(refused, "Delegation refused")
				continue
			}
			s.ctrl.WriteReply(ftp.CodeOK, "Delegation complete")
		case "OPTS":
			var n int
			if _, err := fmt.Sscanf(cmd.Params, "RETR Parallelism=%d,", &n); err != nil || refused != 0 {
				s.ctrl.WriteReply(ftp.CodeParamSyntaxError, "Bad parallelism")
				continue
			}
			s.mu.Lock()
			s.par = n
			s.mu.Unlock()
			s.data.flush()
			s.ctrl.WriteReply(ftp.CodeOK, "Options set")
		case "PORT":
			if refused != 0 {
				s.ctrl.WriteReply(refused, "Bad data address")
				continue
			}
			s.data.connectTo([]string{cmd.Params})
			s.ctrl.WriteReply(ftp.CodeOK, "Data address accepted")
		case "RETR":
			s.retr(cmd.Params, refused)
		case "STOR":
			// A receiving end no sender ever reaches.
			if refused != 0 {
				s.ctrl.WriteReply(refused, "Cannot create "+cmd.Params)
				continue
			}
			s.ctrl.WriteReply(ftp.CodeFileStatusOK, "Ready for data")
			s.ctrl.WriteReply(ftp.CodeTransferAborted, "No data arrived")
		case "NOOP":
			s.ctrl.WriteReply(ftp.CodeOK, "NOOP ok")
		case "SITE":
			if refused != 0 {
				s.ctrl.WriteReply(refused, "SITE refused")
				continue
			}
			s.ctrl.WriteReply(ftp.CodeOK, "SITE ok")
		case "MLST":
			s.mlst(cmd.Params)
		case "MLSC":
			lines, ok := s.listings[cmd.Params]
			if refused == 0 && !ok {
				refused = ftp.CodeFileUnavailable
			}
			if refused != 0 {
				s.ctrl.WriteReply(refused, "No listing")
				continue
			}
			s.ctrl.WriteReply(ftp.CodeFileActionOK, append(append([]string{"Listing " + cmd.Params}, lines...), "End")...)
		case "MKD":
			if refused != 0 {
				s.ctrl.WriteReply(refused, "Not created")
				continue
			}
			s.ctrl.WriteReply(ftp.CodePathCreated, "created")
		case "QUIT":
			s.ctrl.WriteReply(221, "Goodbye")
			return
		default:
			s.ctrl.WriteReply(ftp.CodeNotImplemented, "not scripted")
		}
	}
}

func (s *scriptedServer) mlst(path string) {
	facts := ""
	if _, ok := s.listings[path]; ok {
		facts = "Type=dir;Size=0; " + path
	} else if content, ok := s.files[path]; ok {
		facts = fmt.Sprintf("Type=file;Size=%d; %s", len(content), path)
	} else {
		s.ctrl.WriteReply(ftp.CodeFileUnavailable, "No such file")
		return
	}
	s.ctrl.WriteReply(ftp.CodeFileActionOK, "Listing "+path, facts, "End")
}

// retr follows session.handleRetr: a refusal drops the data path.
func (s *scriptedServer) retr(path string, refused int) {
	content, ok := s.files[path]
	if refused == 0 && !ok {
		refused = ftp.CodeFileUnavailable
	}
	if refused != 0 {
		s.data.reset()
		s.ctrl.WriteReply(refused, "No such file")
		return
	}
	s.mu.Lock()
	par := s.par
	s.mu.Unlock()
	p := channelParams{spec: ChannelSpec{Mode: ModeExtended, DCAU: DCAUNone, Parallelism: par}.Normalize()}
	chans, err := s.data.dial(par, p)
	if err != nil {
		s.data.reset()
		s.ctrl.WriteReply(ftp.CodeCantOpenData, err.Error())
		return
	}
	s.ctrl.WriteReply(ftp.CodeFileStatusOK, fmt.Sprintf("Opening data connection for %s (%d bytes)", path, len(content)))
	err = sendModeE(secConns(chans), dsi.NewBufferFile(content), []Range{{0, int64(len(content))}}, DefaultBlockSize, nil)
	s.data.retire(chans, ModeExtended, err == nil)
	if err != nil {
		s.ctrl.WriteReply(ftp.CodeTransferAborted, err.Error())
		return
	}
	s.ctrl.WriteReply(ftp.CodeClosingData, "Transfer complete")
}

// TestFlightRefusals refuses each element of a fresh session's first flight
// in turn — the owed DELG 200, the owed OPTS, PORT, RETR — and requires that
// Get returns that element's error, that every reply was consumed (the next
// NOOP answers in about a round trip), that no data-path state survives, that
// the next Get sends PORT again and is byte-exact, and that nothing is left
// running once the session closes.
func TestFlightRefusals(t *testing.T) {
	payload := pattern(1 << 20)
	for _, tc := range []struct {
		verb string
		code int
		// par is the parallelism both ends are left with.
		par int
	}{
		{"DELG", ftp.CodeNotLoggedIn, 4},
		{"OPTS", ftp.CodeParamSyntaxError, 1},
		{"PORT", ftp.CodeParamSyntaxError, 4},
		{"RETR", ftp.CodeFileUnavailable, 4},
	} {
		t.Run(tc.verb, func(t *testing.T) {
			before := runtime.NumGoroutine()
			c, srv := newScriptedSession(t, map[string][]byte{"/data.bin": payload})
			srv.refuseNext(tc.verb, tc.code)
			if err := c.Delegate(time.Hour); err != nil {
				t.Fatal(err)
			}
			if err := c.SetParallelism(4); err != nil {
				t.Fatal(err)
			}
			_, err := c.Get("/data.bin", dsi.NewBufferFile(nil))
			var re *ftp.ReplyError
			if !errors.As(err, &re) || re.Reply.Code != tc.code {
				t.Fatalf("Get with %s refused: %v, want the %d", tc.verb, err, tc.code)
			}
			if got := srv.commands(); got != "DELG OPTS PORT RETR" {
				t.Fatalf("the server saw %q, want one flight of DELG OPTS PORT RETR", got)
			}
			start := time.Now()
			if err := c.Noop(); err != nil {
				t.Fatalf("NOOP after the refusal: %v", err)
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("NOOP after the refusal took %v: a reply of the flight was left unread", took)
			}
			if len(c.owed) != 0 || len(c.data.pooledAccepted) != 0 || len(c.data.targets) != 0 {
				t.Fatalf("after the refusal: %d owed, %d pooled channels, targets %v", len(c.owed), len(c.data.pooledAccepted), c.data.targets)
			}
			if c.spec.Parallelism != tc.par {
				t.Fatalf("client parallelism %d after the refusal, want %d", c.spec.Parallelism, tc.par)
			}
			srv.commands()
			dst := dsi.NewBufferFile(nil)
			if _, err := c.Get("/data.bin", dst); err != nil {
				t.Fatalf("Get after the refusal: %v", err)
			}
			if !bytes.Equal(dst.Bytes(), payload) {
				t.Fatal("Get after the refusal: bytes differ")
			}
			if got := srv.commands(); got != "PORT RETR" {
				t.Fatalf("the Get after the refusal sent %q, want PORT RETR", got)
			}
			if got := len(c.data.pooledAccepted); got != tc.par {
				t.Fatalf("%d channels pooled after the clean Get, want %d", got, tc.par)
			}
			c.Close()
			<-srv.done
			if n := leakcheck.AtMost(before); n > before {
				t.Fatalf("%d goroutines after the session closed, %d before it opened", n, before)
			}
		})
	}
}

// TestOwedRepliesSettleBeforeAnyCommand: whatever is issued right after
// Delegate and SetParallelism reads the two owed 200s first and then its own
// reply (a prototype that settled only inside Get failed these with "want
// [227]", "want [250]", "want [257]": each had read an owed 200).
func TestOwedRepliesSettleBeforeAnyCommand(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	s.putFile(t, "/data.bin", pattern(1000))
	payload := pattern(100 << 10)
	for _, tc := range []struct {
		name string
		do   func(c *Client) error
	}{
		{"Put", func(c *Client) error { _, err := c.Put("/up.bin", dsi.NewBufferFile(payload)); return err }},
		{"Put of an empty file", func(c *Client) error { _, err := c.Put("/empty.bin", dsi.NewBufferFile(nil)); return err }},
		{"PutMany", func(c *Client) error { return c.PutMany([]PutItem{{"/many.bin", dsi.NewBufferFile(payload)}}) }},
		{"GetMany", func(c *Client) error { return c.GetMany([]GetItem{{"/data.bin", dsi.NewBufferFile(nil)}}) }},
		{"Get with restart", func(c *Client) error {
			c.SetRestart([]Range{{0, 500}})
			_, err := c.Get("/data.bin", dsi.NewBufferFile(nil))
			return err
		}},
		{"ListEntries", func(c *Client) error { _, err := c.ListEntries("/"); return err }},
		{"List", func(c *Client) error { _, err := c.List("/"); return err }},
		{"Stat", func(c *Client) error { _, err := c.Stat("/data.bin"); return err }},
		{"Mkdir", func(c *Client) error { return c.Mkdir("/dir-" + fmt.Sprint(time.Now().UnixNano())) }},
		{"Size", func(c *Client) error { _, err := c.Size("/data.bin"); return err }},
		{"SetProt", func(c *Client) error { return c.SetProt(ProtPrivate) }},
		{"Setup", func(c *Client) error {
			if err := c.Setup(SessionSetup{Task: "t-1", MarkerInterval: time.Second}); err != nil {
				return err
			}
			return c.Settle()
		}},
		{"StartWalk", func(c *Client) error { _, err := c.StartWalk("/"); return err }},
		{"Close", func(c *Client) error { c.Close(); return nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			proxy, err := gsi.NewProxy(s.user, gsi.ProxyOptions{})
			if err != nil {
				t.Fatal(err)
			}
			c, err := Dial(nw.Host("laptop"), s.addr, proxy, s.trust)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.Delegate(time.Hour); err != nil {
				t.Fatal(err)
			}
			if err := c.SetParallelism(3); err != nil {
				t.Fatal(err)
			}
			if err := c.SetBlockSize(64 << 10); err != nil {
				t.Fatal(err)
			}
			if len(c.owed) != 3 {
				t.Fatalf("%d replies owed after Delegate, SetParallelism and SetBlockSize, want 3", len(c.owed))
			}
			if err := tc.do(c); err != nil {
				t.Fatal(err)
			}
			if len(c.owed) != 0 || c.spec.Parallelism != 3 || c.spec.BlockSize != 64<<10 {
				t.Fatalf("after %s: %d owed, parallelism %d, block size %d", tc.name, len(c.owed), c.spec.Parallelism, c.spec.BlockSize)
			}
		})
	}
	if got := s.readFile(t, "/up.bin"); !bytes.Equal(got, payload) {
		t.Fatal("the Put behind owed replies stored different bytes")
	}
}

// TestOwedRefusalBehindAQuery: an owed refusal comes back from the next call
// that reads the channel, whose own reply is still consumed.
func TestOwedRefusalBehindAQuery(t *testing.T) {
	c, srv := newScriptedSession(t, nil)
	srv.refuseNext("OPTS", ftp.CodeParamSyntaxError)
	if err := c.SetParallelism(8); err != nil {
		t.Fatal(err)
	}
	err := c.Noop()
	var re *ftp.ReplyError
	if !errors.As(err, &re) || re.Reply.Code != ftp.CodeParamSyntaxError {
		t.Fatalf("NOOP behind a refused OPTS: %v, want the 501", err)
	}
	if c.spec.Parallelism != 1 {
		t.Fatalf("parallelism %d after a refused OPTS, want 1", c.spec.Parallelism)
	}
	if err := c.Noop(); err != nil {
		t.Fatalf("the NOOP after that: %v", err)
	}
	// What the server would refuse anyway is refused before it is written.
	for _, n := range []int{0, -1, maxParallelism + 1} {
		if err := c.SetParallelism(n); !errors.As(err, &re) || re.Reply.Code != ftp.CodeParamSyntaxError {
			t.Errorf("SetParallelism(%d): %v, want a 501 at once", n, err)
		}
	}
	for _, n := range []int{0, minBlockSize - 1, maxBlockSize + 1} {
		if err := c.SetBlockSize(n); !errors.As(err, &re) || re.Reply.Code != ftp.CodeParamSyntaxError {
			t.Errorf("SetBlockSize(%d): %v, want a 501 at once", n, err)
		}
	}
	if got := srv.commands(); got != "OPTS NOOP NOOP" {
		t.Fatalf("the server saw %q, want OPTS NOOP NOOP", got)
	}
}

// TestDelegationLeavesPipelinedCommandsAlone pins what leaving DELG's 200
// owed relies on: the commands of the next flight reach the server right
// behind the signed certificate, often in the same read, and a bundle is a
// few kilobytes — longer than the line reader's buffer. DELG is one command
// line and the line reader takes all of it and nothing more.
func TestDelegationLeavesPipelinedCommandsAlone(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), false)
	for round := 0; round < 20; round++ {
		if err := c.Delegate(time.Hour); err != nil {
			t.Fatal(err)
		}
		// Six commands behind the certificate, nothing read in between.
		for i := 0; i < 6; i++ {
			if err := c.send("NOOP", ""); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 6; i++ {
			if r, err := c.expect(ftp.CodeOK); err != nil || !strings.Contains(r.Text(), "NOOP") {
				t.Fatalf("round %d: reply %d behind the delegation: %v %v", round, i, r, err)
			}
		}
	}
}

// TestServerSequencesAFlight is the server's side of the client's flights:
// the replies to commands written back to back, with one of them bad.
func TestServerSequencesAFlight(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	payload := pattern(300 << 10)
	s.putFile(t, "/data.bin", payload)

	// flight writes the command lines back to back and reads nothing.
	flight := func(c *Client, lines ...string) {
		t.Helper()
		for _, line := range lines {
			name, params, _ := strings.Cut(line, " ")
			if err := c.ctrl.Cmd(name, "%s", params); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := func(c *Client, what string, code int) {
		t.Helper()
		if r, err := c.finalReply(nil); err != nil || r.Code != code {
			t.Fatalf("%s: %v %v, want %d", what, r, err, code)
		}
	}
	noop := func(c *Client) {
		t.Helper()
		if err := c.Noop(); err != nil {
			t.Fatalf("NOOP: %v", err)
		}
	}

	c := s.connect(t, nw.Host("laptop"), true)
	flight(c, "RETR /data.bin")
	want(c, "RETR before any PORT", ftp.CodeCantOpenData)
	noop(c)

	flight(c, "PORT not-an-address", "RETR /data.bin")
	want(c, "bad PORT", ftp.CodeParamSyntaxError)
	want(c, "RETR behind a bad PORT", ftp.CodeCantOpenData)
	noop(c)

	// A bad OPTS changes nothing: the transfer behind it runs at the
	// parallelism in effect.
	if _, err := c.data.listen([]*netsim.Host{c.host}); err != nil {
		t.Fatal(err)
	}
	conns := nw.LinkStats("laptop", "siteA").Conns
	flight(c, "OPTS RETR Parallelism=999,999,999;", "PORT "+c.data.listeners[0].Addr().String(), "RETR /data.bin")
	want(c, "bad OPTS", ftp.CodeParamSyntaxError)
	want(c, "PORT behind a bad OPTS", ftp.CodeOK)
	dst := dsi.NewBufferFile(nil)
	res, r, err := c.recvWithReplies(dst, NewRangeSet())
	if err != nil || r.Code != ftp.CodeClosingData || res.Err != nil {
		t.Fatalf("RETR behind a bad OPTS: %v %v %v, want 226", r, err, res.Err)
	}
	if !bytes.Equal(dst.Bytes(), payload) {
		t.Fatal("RETR behind a bad OPTS: bytes differ")
	}
	if got := nw.LinkStats("laptop", "siteA").Conns - conns; got != 1 {
		t.Fatalf("the transfer opened %d data connections, want 1: the refused OPTS must leave parallelism at 1", got)
	}
	noop(c)
}

// refWAN is the benchmark's reference path (bench/worlds.go).
var refWAN = netsim.LinkParams{Bandwidth: 40e6, RTT: 20 * time.Millisecond, StreamWindow: 64 << 10}

// TestFreshGetRoundTripBudget is wan_fresh_p16's operation: dial, delegate,
// sixteen streams, one 1 MiB GET, close. The floors — written out in
// README.md — add up to about 8 round trips and the measured cost is 10.1, of
// which Dial is 3.3: connect, AUTH TLS with the handshake behind it, the
// login, whose reply carries the key Delegate signs over. (11.0 while DELG
// fetched that key in an exchange of its own; 13.0 while AUTH TLS waited for
// its 234 and every data channel for a key and an ack; 19.4 before short
// transfers used every stream and before the client stopped waiting for
// replies it did not need.)
func TestFreshGetRoundTripBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("seventeen TLS handshakes under the race detector cost two round trips of CPU; the budget is wall time")
	}
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	payload := pattern(1 << 20)
	s.putFile(t, "/data.bin", payload)
	nw.SetLink("laptop", "siteA", refWAN)
	proxy, err := gsi.NewProxy(s.user, gsi.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	best, bestDial := time.Duration(0), time.Duration(0)
	for try := 0; try < 3; try++ { // the budget is about the protocol, not about a busy machine
		dst := dsi.NewBufferFile(nil)
		start := time.Now()
		c, err := Dial(nw.Host("laptop"), s.addr, proxy, s.trust)
		if err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); bestDial == 0 || took < bestDial {
			bestDial = took
		}
		if err := c.Delegate(time.Hour); err != nil {
			t.Fatal(err)
		}
		if err := c.SetParallelism(16); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get("/data.bin", dst); err != nil {
			t.Fatal(err)
		}
		c.Close()
		took := time.Since(start)
		if !bytes.Equal(dst.Bytes(), payload) {
			t.Fatal("bytes differ")
		}
		if best == 0 || took < best {
			best = took
		}
	}
	if rtts := float64(bestDial) / float64(refWAN.RTT); rtts > 3.6 {
		t.Errorf("Dial took %.1f round trips (%v), want at most 3.6", rtts, bestDial)
	}
	if rtts := float64(best) / float64(refWAN.RTT); rtts > 11.5 {
		t.Errorf("a fresh-session 1 MiB GET at 16 streams took %.1f round trips (%v), want at most 11.5", rtts, best)
	}
}

// TestThirdPartyErrorIsTheCause: when the destination refuses the STOR before
// any 150, the source is left with no data path and answers 425 (S2) — the
// echo of the refusal, not the failure. The transfer's error is the
// destination's reply. Once the STOR was accepted, a failing source is the
// cause and the destination's 426 the consequence.
func TestThirdPartyErrorIsTheCause(t *testing.T) {
	for _, tc := range []struct {
		name       string
		refuseStor int
		srcPath    string
		want, not  string
	}{
		{"refused STOR, 425 from the source", ftp.CodeBadFileName, "/f.bin", "destination: ftp: 553 Cannot create /out.bin", "425"},
		{"accepted STOR, failing source", 0, "/missing.bin", "source: ftp: 550 No such file", "426"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src, _ := newScriptedSessionOver(t, map[string][]byte{"/f.bin": pattern(100)}, 0)
			dst, dstSrv := newScriptedSessionOver(t, nil, 0)
			w := &thirdPartyWiring{} // as wire leaves a pair; the source's script has no address to connect to
			src.wiring, dst.wiring = w, w
			if tc.refuseStor != 0 {
				dstSrv.refuseNext("STOR", tc.refuseStor)
			}
			_, err := ThirdParty(src, tc.srcPath, dst, "/out.bin", ThirdPartyOptions{})
			if err == nil || !strings.Contains(err.Error(), tc.want) || strings.Contains(err.Error(), tc.not) {
				t.Fatalf("the transfer's error is %q, want the cause (%q) and not its consequence (%s)", err, tc.want, tc.not)
			}
			if wired(src, dst, false) {
				t.Error("the pair is still wired after a failed transfer")
			}
		})
	}
}

// fact is one listing line as a server sends it.
func fact(kind, name string) string { return "Type=" + kind + ";Size=7; " + name }

// binaryTree is the listings of a directory tree three levels deep: /t, two
// directories in it, two in each of those — seven directories, a file in each.
func binaryTree() map[string][]string {
	listings := map[string][]string{"/t": {fact("file", "top.bin"), fact("dir", "a"), fact("dir", "b")}}
	for _, d := range []string{"/t/a", "/t/b"} {
		listings[d] = []string{fact("dir", "1"), fact("file", "mid.bin"), fact("dir", "2")}
		listings[d+"/1"] = []string{fact("file", "leaf.bin")}
		listings[d+"/2"] = []string{fact("file", "leaf.bin")}
	}
	return listings
}

// TestWalkIsOneFlightPerLevel: a tree of seven directories three levels deep
// is walked in three flights — MLST and the root's MLSC behind the session's
// owed set-up commands, then one flight of MLSCs per level — and the seven
// MKDs that recreate it go out parents first in one flight that nothing waits
// for.
func TestWalkIsOneFlightPerLevel(t *testing.T) {
	c, srv := newScriptedSession(t, nil)
	srv.listings = binaryTree()
	o := obs.Nop()
	c.obs = o
	if err := c.Setup(SessionSetup{Task: "task-1"}); err != nil {
		t.Fatal(err)
	}
	w, err := c.StartWalk("/t")
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.commands(); got != "SITE MLST MLSC" || flights(o) != 1 || c.task != "task-1" {
		t.Fatalf("the first flight: server saw %q in %d flights, task label %q; want SITE MLST MLSC in 1", got, flights(o), c.task)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if got, want := srv.commandLines(), []string{"MLSC /t/a", "MLSC /t/b", "MLSC /t/a/1", "MLSC /t/a/2", "MLSC /t/b/1", "MLSC /t/b/2"}; !reflect.DeepEqual(got, want) {
		t.Errorf("below the root the server saw %q, want %q", got, want)
	}
	if got := flights(o); got != 3 {
		t.Errorf("seven directories on three levels were walked in %d flights, want 3", got)
	}
	if want := []string{"a", "b", "a/1", "a/2", "b/1", "b/2"}; !w.IsDir || !reflect.DeepEqual(w.Dirs, want) {
		t.Errorf("directories %q, want %q (every one after its parent)", w.Dirs, want)
	}
	var files []string
	for _, f := range w.Files {
		files = append(files, f.Rel)
	}
	sort.Strings(files)
	if want := []string{"a/1/leaf.bin", "a/2/leaf.bin", "a/mid.bin", "b/1/leaf.bin", "b/2/leaf.bin", "b/mid.bin", "top.bin"}; !reflect.DeepEqual(files, want) {
		t.Errorf("files %q, want %q", files, want)
	}

	dirs := []string{"/copy"}
	for _, d := range w.Dirs {
		dirs = append(dirs, "/copy/"+d)
	}
	if _, err := NewPipeline(c, c).Mkdirs(dirs); err != nil {
		t.Fatal(err)
	}
	if got := flights(o); got != 3 {
		t.Errorf("Mkdirs waited: %d flights, still want 3", got)
	}
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	want := []string{"MKD /copy", "MKD /copy/a", "MKD /copy/b", "MKD /copy/a/1", "MKD /copy/a/2", "MKD /copy/b/1", "MKD /copy/b/2"}
	if got := srv.commandLines(); !reflect.DeepEqual(got, want) || flights(o) != 4 {
		t.Errorf("the tree was recreated with %q in %d flights, want %q in 1", got, flights(o)-3, want)
	}
}

// TestSingleFileSurvivesTheSpeculativeListing: the walk asks for the listing
// before it knows that the path is a directory. When it is a file the MLSC is
// refused; the refusal is read and dropped, the walk is that one file, and the
// channel is in step.
func TestSingleFileSurvivesTheSpeculativeListing(t *testing.T) {
	c, srv := newScriptedSession(t, map[string][]byte{"/data.bin": pattern(12345)})
	o := obs.Nop()
	c.obs = o
	w, err := c.WalkEntries("/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if want := []WalkEntry{{Rel: "", Size: 12345}}; w.IsDir || !reflect.DeepEqual(w.Files, want) || len(w.Dirs) != 0 {
		t.Fatalf("walk of a file: dir=%v files=%v dirs=%v, want %v", w.IsDir, w.Files, w.Dirs, want)
	}
	if got := srv.commands(); got != "MLST MLSC" || flights(o) != 1 {
		t.Fatalf("server saw %q in %d flights, want MLST MLSC in 1", got, flights(o))
	}
	start := time.Now()
	if err := c.Noop(); err != nil {
		t.Fatalf("NOOP after the walk: %v", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("NOOP after the walk took %v: the refused MLSC was left unread", took)
	}
}

// TestRefusedSetupFailsThePlanFlight: MLST and MLSC are written behind set-up
// commands whose replies are owed. When one of those is refused the walk
// returns that refusal — not a plan — after reading all four replies, and has
// written nothing else.
func TestRefusedSetupFailsThePlanFlight(t *testing.T) {
	c, srv := newScriptedSession(t, nil)
	srv.listings = binaryTree()
	srv.refuseNext("SITE", ftp.CodeParamSyntaxError)
	if err := c.Setup(SessionSetup{Task: "task-1", Trace: obs.NewTracer().StartSpan("task").Context()}); err != nil {
		t.Fatal(err)
	}
	w, err := c.StartWalk("/t")
	var re *ftp.ReplyError
	if w != nil || !errors.As(err, &re) || re.Reply.Code != ftp.CodeParamSyntaxError {
		t.Fatalf("StartWalk behind a refused SITE TRACE: %v, %v; want the 501 and no walk", w, err)
	}
	if got := srv.commands(); got != "SITE SITE MLST MLSC" {
		t.Fatalf("server saw %q, want SITE SITE MLST MLSC and nothing behind them", got)
	}
	if len(c.owed) != 0 || c.task != "task-1" {
		t.Errorf("%d owed, task label %q: the accepted SITE TASK behind the refused command must still apply", len(c.owed), c.task)
	}
	start := time.Now()
	if err := c.Noop(); err != nil || time.Since(start) > time.Second {
		t.Fatalf("NOOP after the refused flight: %v after %v", err, time.Since(start))
	}
	// A path that is not there is the MLST's own refusal, read the same way.
	if _, err := c.StartWalk("/missing"); !errors.As(err, &re) || re.Reply.Code != ftp.CodeFileUnavailable {
		t.Fatalf("StartWalk of a missing path: %v, want the 550", err)
	}
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
}

// TestFlightsAreCapped: a level wider than one flight carries is listed in as
// many flights as it takes, and so is a tree wider than that recreated — what
// the client writes before it reads stays inside a socket buffer however
// large the tree.
func TestFlightsAreCapped(t *testing.T) {
	for _, tc := range []struct {
		paths []string
		want  int
	}{
		{make([]string, 3*maxFlightCommands), maxFlightCommands},
		{[]string{strings.Repeat("p", maxFlightBytes/2), strings.Repeat("q", maxFlightBytes/2), "r"}, 1},
		{[]string{strings.Repeat("p", 2*maxFlightBytes), "q"}, 1}, // a path alone is a flight, however long
		{[]string{"a", "b"}, 2},
	} {
		if got := flightLen(tc.paths); got != tc.want {
			t.Errorf("flightLen of %d paths (the first %d bytes long) = %d, want %d", len(tc.paths), len(tc.paths[0]), got, tc.want)
		}
	}

	const wide = maxFlightCommands + 8
	listings := map[string][]string{"/w": nil}
	dirs := []string{"/copy"}
	for i := 0; i < wide; i++ {
		name := fmt.Sprintf("d%02d", i)
		listings["/w"] = append(listings["/w"], fact("dir", name))
		listings["/w/"+name] = []string{fact("file", "f.bin")}
		dirs = append(dirs, "/copy/"+name)
	}
	c, srv := newScriptedSession(t, nil)
	srv.listings = listings
	o := obs.Nop()
	c.obs = o
	w, err := c.WalkEntries("/w")
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Files) != wide || len(w.Dirs) != wide || flights(o) != 3 {
		t.Fatalf("%d files and %d directories in %d flights, want %d and %d in 3 (the root, then %d and 8 directories)", len(w.Files), len(w.Dirs), flights(o), wide, wide, maxFlightCommands)
	}
	if _, err := NewPipeline(c, c).Mkdirs(dirs); err != nil {
		t.Fatal(err)
	}
	if got, owed := flights(o), len(c.owed); got != 4 || owed != len(dirs)-maxFlightCommands {
		t.Fatalf("after Mkdirs of %d directories: %d flights and %d replies owed, want 4 and %d (the first flight waited for, the second not)", len(dirs), got, owed, len(dirs)-maxFlightCommands)
	}
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(srv.commands(), "MKD"); got != len(dirs) {
		t.Errorf("server saw %d MKD, want %d", got, len(dirs))
	}
}

// TestWalkTakesOnlyPlainNamesFromAListing: the names in a listing are the
// server's to choose and the walk joins them into source and destination
// paths, so a name that is anything but one path element fails the walk, with
// an error that says which listing held it — it does not steer a STOR outside
// the task's root or (a directory named ".") list the same directory for
// ever. The entries real MLSD servers send for the listed directory itself
// and its parent are skipped, whatever they are called.
func TestWalkTakesOnlyPlainNamesFromAListing(t *testing.T) {
	for _, tc := range []struct {
		name  string
		entry string
	}{
		{"parent", fact("file", "..")},
		{"self as a directory", fact("dir", ".")},
		{"climbs out", fact("file", "a/../../b")},
		{"absolute", fact("file", "/etc/passwd")},
		{"two elements", fact("dir", "x/y")},
		{"NUL", fact("file", "nul\x00byte")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, srv := newScriptedSession(t, nil)
			srv.listings = map[string][]string{
				"/t":     {fact("file", "fine.bin"), fact("dir", "sub")},
				"/t/sub": {fact("file", "also-fine.bin"), tc.entry},
			}
			w, err := c.WalkEntries("/t")
			if err == nil || !strings.Contains(err.Error(), "/t/sub") {
				t.Fatalf("walk: %v (files %v); want an error that names the listing of /t/sub", err, w.Files)
			}
			if got := srv.commands(); got != "MLST MLSC MLSC" {
				t.Errorf("server saw %q, want MLST MLSC MLSC: the walk must stop at the name", got)
			}
			if err := c.Noop(); err != nil {
				t.Fatalf("NOOP after the refused listing: %v", err)
			}
		})
	}

	c, srv := newScriptedSession(t, nil)
	srv.listings = map[string][]string{
		"/t":     {fact("cdir", "."), fact("pdir", ".."), fact("file", "top.bin"), fact("dir", "sub")},
		"/t/sub": {fact("cdir", "/t/sub"), fact("pdir", "/t"), fact("file", "leaf.bin")},
	}
	w, err := c.WalkEntries("/t")
	if err != nil {
		t.Fatal(err)
	}
	if want := []WalkEntry{{"top.bin", 7}, {"sub/leaf.bin", 7}}; !reflect.DeepEqual(w.Files, want) || !reflect.DeepEqual(w.Dirs, []string{"sub"}) {
		t.Errorf("walk past cdir and pdir entries: files %v, directories %v; want %v and [sub]", w.Files, w.Dirs, want)
	}
	if entries, err := c.ListEntries("/t"); err != nil || len(entries) != 2 {
		t.Errorf("ListEntries past cdir and pdir entries: %v, %v; want the file and the directory", entries, err)
	}
}

// TestWalkIsBounded: a server can answer every listing with one more
// directory, or with more entries than anyone has memory for. The walk stops
// at maxWalkDepth levels and at its budget of entries, and says where.
func TestWalkIsBounded(t *testing.T) {
	c, srv := newScriptedSessionOver(t, nil, time.Millisecond)
	srv.listings = map[string][]string{}
	dir, deepest := "/t", ""
	for depth := 0; depth <= maxWalkDepth; depth++ {
		srv.listings[dir] = []string{fact("dir", "d"), fact("file", "f.bin")}
		dir += "/d"
		deepest = dir
	}
	w, err := c.WalkEntries("/t")
	if err == nil || !strings.Contains(err.Error(), deepest) {
		t.Fatalf("walk of a tree %d directories deep: %v; want an error that names %s", maxWalkDepth+1, err, deepest)
	}
	if len(w.Dirs) != maxWalkDepth {
		t.Errorf("%d directories found before the walk stopped, want %d", len(w.Dirs), maxWalkDepth)
	}
	if err := c.Noop(); err != nil {
		t.Fatalf("NOOP after the walk stopped: %v", err)
	}

	c, srv = newScriptedSession(t, nil)
	srv.listings = binaryTree()
	w, err = c.StartWalk("/t")
	if err != nil {
		t.Fatal(err)
	}
	if w.budget != maxWalkEntries-3 {
		t.Fatalf("budget %d after three entries, want %d", w.budget, maxWalkEntries-3)
	}
	w.budget = 4 // the second level has six
	if err := w.Finish(); err == nil || !strings.Contains(err.Error(), "/t/b") {
		t.Fatalf("walk past its budget: %v; want an error that names /t/b, where it ran out", err)
	}
	if err := c.Noop(); err != nil {
		t.Fatalf("NOOP after the walk stopped: %v", err)
	}
}
