package gridftp

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

// TestClassicClientStillLogsIn: an RFC 4217 client reads the greeting, sends
// AUTH TLS, waits for the 234 — multi-line here, its last line the session's
// delegation key — and only then starts its handshake. The server reads that
// handshake through the control channel's line buffer, which is empty by then,
// and answers the RFC 959 login that follows it in step: every reply comes
// back behind the command it answers and none before.
func TestClassicClientStillLogsIn(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	raw, err := nw.Host("laptop").Dial(s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	ctrl := ftp.NewConn(raw)
	step := func(name, params string, want int) ftp.Reply {
		t.Helper()
		// A reply waiting before its command is sent answers something else.
		raw.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
		if r, err := ctrl.ReadReply(); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("before %s the server sent %v (%v), want nothing", name, r, err)
		}
		raw.SetReadDeadline(time.Time{})
		if err := ctrl.Cmd(name, "%s", params); err != nil {
			t.Fatal(err)
		}
		r, err := ctrl.Expect(want)
		if err != nil {
			t.Fatalf("%s %s: %v %v", name, params, r, err)
		}
		return r
	}
	if _, err := ctrl.Expect(ftp.CodeReadyForNewUser); err != nil {
		t.Fatal(err)
	}
	if r := step("AUTH", "TLS", ftp.CodeAuthOK); len(r.Lines) != 2 || !strings.HasPrefix(r.Lines[1], delegKeyPrefix) {
		t.Fatalf("the 234 read %q, want its text and a %q line", r.Lines, delegKeyPrefix)
	}
	tc := tls.Client(ctrl.RW(), gsi.ClientTLSConfig(s.user, s.trust))
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	ctrl.Upgrade(tc)
	step("USER", ":globus-mapping:", ftp.CodeUserLoggedIn)
	step("PASS", "x", ftp.CodeUserLoggedIn)
	step("PBSZ", "0", ftp.CodeOK)
	step("PROT", "P", ftp.CodeOK)
	step("PWD", "", ftp.CodePathCreated)
}

// TestPlaintextBehindAuthIsNeverACommand is the STARTTLS injection
// (CVE-2011-0411): an attacker on the path appends a command to the client's
// AUTH TLS, hoping the server buffers it and runs it after the handshake, as
// if the authenticated user had sent it. Whatever arrives behind the AUTH
// line is handshake input here and nothing else: the handshake fails on it,
// the session ends, and the command is never dispatched — one command (the
// AUTH) on the counter, no reply to the SITE on the wire, and an event log
// that holds the session's open, its failed handshake and its close.
func TestPlaintextBehindAuthIsNeverACommand(t *testing.T) {
	nw := netsim.NewNetwork()
	o := obs.Nop()
	s := newSite(t, nw, "siteA", func(cfg *ServerConfig) { cfg.Obs = o })
	raw, err := nw.Host("laptop").Dial(s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	if _, err := raw.Write([]byte("AUTH TLS\r\nSITE HELP\r\n")); err != nil { // one segment
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	ctrl := ftp.NewConn(raw)
	if _, err := ctrl.Expect(ftp.CodeReadyForNewUser); err != nil {
		t.Fatal(err)
	}
	if r, err := ctrl.Expect(ftp.CodeAuthOK); err != nil {
		t.Fatalf("the server answered AUTH with %v %v, want a 234", r, err)
	}
	rest, err := io.ReadAll(ctrl.RW())
	if err != nil {
		t.Fatalf("the server did not hang up: %v", err)
	}
	// A reply to the SITE would be a line behind the 234: 214, 200, 530.
	if strings.Contains(string(rest), "\r\n") {
		t.Errorf("behind the 234 the server sent %q, want no reply line", rest)
	}
	waitFor(t, "the session to end", func() bool { return len(o.Events()) >= 3 })
	if n := o.Metrics.Histogram("gridftp.server.command_seconds", obs.DefaultDurationBuckets).Count(); n != 1 {
		t.Errorf("%d commands dispatched, want 1 (the AUTH)", n)
	}
	var types []string
	for _, e := range o.Events() {
		types = append(types, e.Type)
		if e.Type == "auth.failure" && e.Fields["stage"] != "handshake" {
			t.Errorf("the session failed at stage %q, want the handshake", e.Fields["stage"])
		}
	}
	if got, want := strings.Join(types, " "), strings.Join([]string{"session.open", "auth.failure", "session.close"}, " "); got != want {
		t.Errorf("event log %q, want %q", got, want)
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDialReportsTheRefusalItWasGiven: Dial writes AUTH TLS and its
// ClientHello before it has read anything, so a server that refuses — at the
// greeting, at AUTH, or at the login once it knows who is asking — does so to
// a client already in its handshake. The error Dial returns is still that
// refusal, not what the handshake made of it; the login's, which Dial leaves
// owed, is the first read's error.
func TestDialReportsTheRefusalItWasGiven(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	user := testSecurity(t, "alice")

	// scripted answers one connection with the given lines, reads until the
	// client hangs up, and closes.
	scripted := func(name string, lines ...string) string {
		l, err := nw.Host(name).Listen(DefaultPort)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			for _, line := range lines {
				io.WriteString(conn, line+"\r\n")
			}
			io.Copy(io.Discard, conn)
		}()
		return l.Addr().String()
	}
	for _, tc := range []struct {
		name string
		dial func() error
		code int
		text string
	}{
		{"421 greeting", func() error {
			_, err := Dial(nw.Host("laptop"), scripted("busy", "421 Too many sessions, try later"), user.Cred, user.Trust)
			return err
		}, ftp.CodeServiceNotAvail, "Too many sessions"},
		{"AUTH refused", func() error {
			_, err := Dial(nw.Host("laptop"), scripted("plain", "220 ready", "504 Only plain FTP here"), user.Cred, user.Trust)
			return err
		}, ftp.CodeParamNotImpl, "Only plain FTP"},
		{"login refused", func() error {
			// A certificate the site's CA issued to someone its gridmap does not know.
			nobody, err := s.ca.Issue(gsi.IssueOptions{Subject: "/O=Grid/OU=siteA/CN=nobody", Lifetime: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			c, err := Dial(nw.Host("laptop"), s.addr, nobody, s.trust)
			if err != nil {
				return err
			}
			defer c.Close()
			return c.Noop() // the login's verdict is owed to the first read
		}, ftp.CodeNotLoggedIn, "Authorization failed"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			err := tc.dial()
			var re *ftp.ReplyError
			if !errors.As(err, &re) || re.Reply.Code != tc.code || !strings.Contains(re.Reply.Text(), tc.text) {
				t.Fatalf("Dial returned %v, want the server's %d %s", err, tc.code, tc.text)
			}
			if took := time.Since(start); took > 2*time.Second {
				t.Errorf("the refusal took %v to come back", took)
			}
		})
	}
}

// wireConn is a control connection whose peer has sent r: the bytes it hands
// the reader are counted, and what is written to it goes nowhere.
type wireConn struct {
	discardConn
	r    io.Reader
	read int
}

func (w *wireConn) Read(p []byte) (int, error) {
	n, err := w.r.Read(p)
	w.read += n
	return n, err
}

// endlessLine is a peer that never ends its line.
type endlessLine struct{}

func (endlessLine) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// FuzzLoginReplies feeds Dial's reader of the 220 and the 234 — replies that
// precede TLS, so whoever is on the path writes them — arbitrary bytes, and,
// when endless, a line that never ends behind them. Whatever they hold, the
// reader does not panic, reads no further into a line than ftp's line cap,
// and takes a delegation key only from a 234 it accepted and only one that
// parses as a PKIX public key.
func FuzzLoginReplies(f *testing.F) {
	_, der, err := gsi.NewDelegationKey()
	if err != nil {
		f.Fatal(err)
	}
	key := delegKeyPrefix + base64.StdEncoding.EncodeToString(der)
	f.Add([]byte("220 Instant GridFTP server ready\r\n234-Proceed with security exchange\r\n234 "+key+"\r\n"), false)
	f.Add([]byte("421 Too many sessions, try later\r\n"), false)
	f.Add([]byte("220 ready\r\n504 Only plain FTP here\r\n"), false)
	f.Add([]byte("220 ready\r\n234-Proceed\r\n234 DELGKEY not*base64\r\n"), false)
	f.Add([]byte("220 ready\r\n234-Proceed\r\n234 DELGKEY "+base64.StdEncoding.EncodeToString(der[:20])+"\r\n"), false)
	f.Add([]byte("220 ready\r\n234-Proceed\r\n234 "), true) // a line past the cap
	f.Fuzz(func(t *testing.T, wire []byte, endless bool) {
		var r io.Reader = bytes.NewReader(wire)
		if endless {
			r = io.MultiReader(r, endlessLine{})
		}
		conn := &wireConn{r: r}
		c := &Client{ctrl: ftp.NewConn(conn)}
		l := &loginConn{Conn: c.ctrl.RW(), c: c}
		err := l.replies()
		// ftp's line cap, and a buffer's worth read ahead of it.
		if limit := len(wire) + 1<<20 + 4096; conn.read > limit {
			t.Fatalf("read %d bytes of a %d-byte wire, want at most %d", conn.read, len(wire), limit)
		}
		if c.delegKey == nil {
			return
		}
		if err != nil {
			t.Fatalf("the replies failed (%v), yet a key was taken", err)
		}
		if _, perr := x509.ParsePKIXPublicKey(c.delegKey); perr != nil {
			t.Fatalf("took a key that does not parse: %v", perr)
		}
	})
}

// TestRefusedLoginRunsNothingPipelinedBehindIt: Dial returns once it has
// verified the server, so a client whose DN the server does not map writes
// DELG, PORT and RETR behind its handshake before the verdict can arrive.
// The server answers the login 530 and ends the session: the Get's first read
// returns that 530, no command behind the AUTH is dispatched, and no data
// connection is opened to the client.
func TestRefusedLoginRunsNothingPipelinedBehindIt(t *testing.T) {
	nw := netsim.NewNetwork()
	o := obs.Nop()
	s := newSite(t, nw, "siteA", func(cfg *ServerConfig) { cfg.Obs = o })
	s.putFile(t, "/data.bin", pattern(1<<20))
	nw.SetLink("laptop", "siteA", refWAN) // every write leaves before the verdict is back
	nobody, err := s.ca.Issue(gsi.IssueOptions{Subject: "/O=Grid/OU=siteA/CN=nobody", Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(nw.Host("laptop"), s.addr, nobody, s.trust)
	if err != nil {
		t.Fatalf("Dial returned %v, want the login owed", err)
	}
	defer c.Close()
	if err := c.Delegate(time.Hour); err != nil {
		t.Fatal(err)
	}
	_, err = c.Get("/data.bin", dsi.NewBufferFile(nil))
	var re *ftp.ReplyError
	if !errors.As(err, &re) || re.Reply.Code != ftp.CodeNotLoggedIn || !strings.Contains(re.Reply.Text(), "Authorization failed") {
		t.Fatalf("Get behind a refused login returned %v, want the 530 Authorization failed", err)
	}
	active := o.Metrics.Gauge("gridftp.server.sessions_active")
	waitFor(t, "the session to end", func() bool { return active.Value() == 0 })
	if n := o.Metrics.Histogram("gridftp.server.command_seconds", obs.DefaultDurationBuckets).Count(); n != 1 {
		t.Errorf("%d commands dispatched, want 1 (the AUTH)", n)
	}
	if n := nw.LinkStats("laptop", "siteA").Conns; n != 1 {
		t.Errorf("%d connections between client and server, want 1 (the control channel)", n)
	}
}

// TestSubstitutedDelegationKeyIsRefused: the 234 travels before TLS, so a
// relay on the path can swap its DELGKEY for a key of its own while passing
// the handshake and everything after it through untouched. The proxy the
// client signs over that key reaches only the server, inside the channel
// that verified it, and the server refuses a proxy over any key but its own:
// DELG is answered 501, nothing is installed, and a GET under DCAU is refused
// for want of a credential.
func TestSubstitutedDelegationKeyIsRefused(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	s.putFile(t, "/data.bin", pattern(64<<10))
	_, forged, err := gsi.NewDelegationKey()
	if err != nil {
		t.Fatal(err)
	}
	l, err := nw.Host("relay").Listen(DefaultPort)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	swapped := make(chan bool, 1)
	go func() {
		defer close(swapped)
		client, err := l.Accept()
		if err != nil {
			return
		}
		defer client.Close()
		server, err := nw.Host("relay").Dial(s.addr)
		if err != nil {
			return
		}
		defer server.Close()
		go io.Copy(server, client)
		// The 220 and the 234, line by line, one line rewritten; then the
		// server's handshake and the session, byte for byte.
		br := bufio.NewReader(server)
		var pre strings.Builder
		found := false
		for !strings.HasPrefix(pre.String(), "220 ") || !strings.Contains(pre.String(), "\n234 ") {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if rest, ok := strings.CutPrefix(line, "234 "+delegKeyPrefix); ok && rest != "" {
				line = "234 " + delegKeyPrefix + base64.StdEncoding.EncodeToString(forged) + "\r\n"
				found = true
			}
			pre.WriteString(line)
		}
		swapped <- found
		if _, err := io.WriteString(client, pre.String()); err != nil {
			return
		}
		io.Copy(client, br)
	}()
	proxy, err := gsi.NewProxy(s.user, gsi.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(nw.Host("laptop"), l.Addr().String(), proxy, s.trust)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !<-swapped {
		t.Fatal("the relay found no key to swap")
	}
	if err := c.Delegate(time.Hour); err != nil {
		t.Fatal(err)
	}
	err = c.Noop()
	var re *ftp.ReplyError
	if !errors.As(err, &re) || re.Reply.Code != ftp.CodeParamSyntaxError {
		t.Fatalf("DELG over the relay's key: %v, want a 501", err)
	}
	_, err = c.Get("/data.bin", dsi.NewBufferFile(nil))
	if !errors.As(err, &re) || re.Reply.Code != ftp.CodeNotLoggedIn || !strings.Contains(re.Reply.Text(), "requires a delegated credential") {
		t.Fatalf("a DCAU GET behind the refused DELG: %v, want the 530 for a missing credential", err)
	}
}
