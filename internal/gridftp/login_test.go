package gridftp

import (
	"crypto/tls"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
)

// TestClassicClientStillLogsIn: an RFC 4217 client reads the greeting, sends
// AUTH TLS, waits for the 234 and only then starts its handshake. The server
// reads that handshake through the control channel's line buffer, which is
// empty by then, and the session goes on as it always did.
func TestClassicClientStillLogsIn(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	raw, err := nw.Host("laptop").Dial(s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	ctrl := ftp.NewConn(raw)
	if _, err := ctrl.Expect(ftp.CodeReadyForNewUser); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.Cmd("AUTH", "TLS"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Expect(ftp.CodeAuthOK); err != nil {
		t.Fatal(err)
	}
	tc := tls.Client(raw, gsi.ClientTLSConfig(s.user, s.trust))
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	ctrl = ftp.NewConn(tc)
	if r, err := ctrl.Expect(ftp.CodeUserLoggedIn); err != nil {
		t.Fatalf("login: %v %v", r, err)
	}
	if err := ctrl.Cmd("PWD", ""); err != nil {
		t.Fatal(err)
	}
	if r, err := ctrl.Expect(ftp.CodePathCreated); err != nil {
		t.Fatalf("PWD on the classic client's session: %v %v", r, err)
	}
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
	wire, err := io.ReadAll(raw)
	if err != nil {
		t.Fatalf("the server did not hang up: %v", err)
	}
	lines := strings.SplitN(string(wire), "\r\n", 3)
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "220 ") || !strings.HasPrefix(lines[1], "234 ") {
		t.Fatalf("the server sent %q, want 220, 234 and a failed handshake", wire)
	}
	// A reply to the SITE would be a line behind the 234: 214, 200, 530.
	if strings.Contains(lines[2], "\r\n") {
		t.Errorf("behind the 234 the server sent %q, want no reply line", lines[2])
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
// refusal, not what the handshake made of it.
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
			_, err = Dial(nw.Host("laptop"), s.addr, nobody, s.trust)
			return err
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
