package myproxy

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/leakcheck"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
)

// deadline is what every phase of a logon gets in this package's tests: long
// enough for a handshake under the race detector, short enough to wait out.
const deadline = 2 * time.Second

func TestMain(m *testing.M) {
	exchangeTimeout, promptTimeout = deadline, deadline
	os.Exit(m.Run())
}

// handshaken dials the server and completes the TLS handshake, as a peer
// that goes on to misbehave would.
func handshaken(t *testing.T, nw *netsim.Network, addr string) *tls.Conn {
	t.Helper()
	raw, err := nw.Host("laptop").Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	tc := tls.Client(raw, &tls.Config{InsecureSkipVerify: true, MinVersion: tls.VersionTLS12})
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	return tc
}

// hungUpOn reads what the server sends until it hangs up, which it must do
// within the deadline, and fails if that was anything.
func hungUpOn(t *testing.T, tc *tls.Conn, what string) {
	t.Helper()
	tc.SetReadDeadline(time.Now().Add(2 * deadline))
	got, err := io.ReadAll(tc)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("the server still held a peer that %s after %v", what, 2*deadline)
	}
	if len(got) != 0 {
		t.Fatalf("the server answered a peer that %s with %q", what, got)
	}
}

// TestServerRefusesAnEndlessLine: a peer that sends a mebibyte with no
// newline is cut off at the line cap — no prompt, no reply, and the session's
// goroutine gone — not buffered until its deadline.
func TestServerRefusesAnEndlessLine(t *testing.T) {
	nw, srv, addr, _, _ := env(t)
	before := runtime.NumGoroutine()
	tc := handshaken(t, nw, addr)
	defer tc.Close()
	start := time.Now()
	sent := make(chan error, 1)
	go func() {
		_, err := tc.Write(bytes.Repeat([]byte("L"), 1<<20))
		sent <- err
	}()
	hungUpOn(t, tc, "sent a line with no end")
	if took := time.Since(start); took >= deadline {
		t.Errorf("the line took %v to refuse, want it refused at the cap, before the %v deadline", took, deadline)
	}
	tc.Close()
	<-sent // the write fits the simulated send buffer, so its outcome says nothing
	if n := leakcheck.AtMost(before); n > before {
		t.Errorf("%d goroutines after the refusal, %d before the peer dialled", n, before)
	}
	if n := srv.OnlineCA.Issued(); n != 0 {
		t.Fatalf("%d certificates issued", n)
	}
}

// TestServerDropsASilentPeer: a peer that completes the handshake and sends
// nothing, or the request and then no answer to its prompt, is dropped at the
// deadline.
func TestServerDropsASilentPeer(t *testing.T) {
	for name, request := range map[string]string{
		"silent after the handshake": "",
		"silent at the prompt":       "LOGON alice 0\nPUBKEY " + base64.StdEncoding.EncodeToString(pubkeyDER(t)) + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			nw, _, addr, _, _ := env(t)
			before := runtime.NumGoroutine()
			tc := handshaken(t, nw, addr)
			defer tc.Close()
			if _, err := io.WriteString(tc, request); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			tc.SetReadDeadline(time.Now().Add(2 * deadline))
			got, err := io.ReadAll(tc)
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("the server still held the peer after %v", 2*deadline)
			}
			if request != "" && !strings.HasPrefix(string(got), "PROMPT ") {
				t.Fatalf("the server sent %q, want a prompt", got)
			}
			if took := time.Since(start); took < deadline/2 {
				t.Errorf("the server hung up after %v, before the %v deadline", took, deadline)
			}
			tc.Close()
			if n := leakcheck.AtMost(before); n > before {
				t.Errorf("%d goroutines after the drop, %d before the peer dialled", n, before)
			}
		})
	}
}

// TestHostileServerCannotHoldLogon: a server that completes the handshake and then
// says nothing, or sends a line that never ends, cannot hold Logon past its
// deadline.
func TestHostileServerCannotHoldLogon(t *testing.T) {
	host, err := gsi.SelfSignedCredential("/CN=myproxy-host", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for name, answer := range map[string]func(io.Writer){
		"silent":  func(io.Writer) {},
		"endless": func(w io.Writer) { w.Write(bytes.Repeat([]byte("P"), 1<<20)) },
	} {
		t.Run(name, func(t *testing.T) {
			nw := netsim.NewNetwork()
			l, err := nw.Host("siteA").Listen(DefaultPort)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			conns := make(chan net.Conn, 1)
			go func() {
				raw, err := l.Accept()
				if err != nil {
					return
				}
				defer raw.Close()
				conns <- raw
				tc := tls.Server(raw, gsi.ServerTLSConfigNoClientAuth(host))
				if tc.Handshake() != nil {
					return
				}
				answer(tc)
				io.Copy(io.Discard, tc) // until Logon hangs up
			}()
			start := time.Now()
			done := make(chan error, 1)
			go func() {
				_, err := Logon(nw.Host("laptop"), l.Addr().String(), "alice", pam.PasswordConv("s3cret"), LogonOptions{})
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("Logon succeeded against a server that sent no certificate")
				}
				if took := time.Since(start); took > deadline+deadline/2 {
					t.Errorf("Logon returned after %v (%v), want within its %v deadline", took, err, deadline)
				}
			case <-time.After(2 * deadline):
				(<-conns).Close() // lets Logon return, so the test fails rather than hangs
				<-done
				t.Fatalf("Logon still held after %v", 2*deadline)
			}
		})
	}
}

// FuzzMyProxyRequest feeds raw bytes — the request's flight, sent by a peer
// that has authenticated nobody yet — to readRequest. Whatever they hold, it
// does not panic; reads no more than its three lines' cap from the peer; a
// refusal is one ERR line whose text does not depend on the pass phrase (the
// same input with every byte of the pass phrase changed is refused in the
// same words); and what it accepts is a user name, a lifetime that is no
// negative or overflowed duration, and a public key.
func FuzzMyProxyRequest(f *testing.F) {
	key := "PUBKEY " + base64.StdEncoding.EncodeToString(pubkeyDER(f)) + "\n"
	f.Add([]byte("LOGON alice 3600\nPASSPHRASE s3cret\n" + key))
	f.Add([]byte("LOGON alice 3600\n" + key))
	f.Add([]byte("LOGON alice 0 00-0123456789abcdef0123456789abcdef-0123456789abcdef-01\nPASSPHRASE \n" + key))
	f.Add([]byte("LOGON alice 9223372036854775807\r\n" + key))
	f.Add([]byte("LOGON alice 60\nPASSPHRASE PUBKEY\nPUBKEY !!!\n"))
	f.Add([]byte("LOGON alice -1\nPASSPHRASE x\nPASSPHRASE y\n" + key))
	f.Add([]byte("LOGON\nPUBKEY " + base64.StdEncoding.EncodeToString([]byte("not DER")) + "\n"))
	f.Add([]byte("LOGON a b c d e\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &countingReader{r: bytes.NewReader(data)}
		br := bufio.NewReader(src)
		req, err := readRequest(br)
		if limit := 3*(maxLineBytes+1) + br.Size(); src.n > limit {
			t.Fatalf("read %d bytes of the request, past its three lines' cap of %d", src.n, limit)
		}
		var r refusal
		switch {
		case errors.As(err, &r):
			if strings.ContainsAny(r.Error(), "\r\n") {
				t.Fatalf("ERR text %q spans lines", r.Error())
			}
			if req.pass != nil {
				// The pass phrase line is the second: it starts behind
				// the first newline.
				at := bytes.IndexByte(data, '\n') + 1 + len("PASSPHRASE ")
				other := bytes.Clone(data)
				for i := at; i < at+len(*req.pass); i++ {
					if other[i] == 'a' {
						other[i] = 'b'
					} else {
						other[i] = 'a'
					}
				}
				_, err2 := readRequest(bufio.NewReader(bytes.NewReader(other)))
				if err2 == nil || err2.Error() != r.Error() {
					t.Fatalf("ERR text %q depends on the pass phrase %q (changed, it reads %v)", r.Error(), *req.pass, err2)
				}
			}
		case err != nil:
		case req.user == "" || strings.ContainsAny(req.user, " \t\r\n"):
			t.Fatalf("user %q", req.user)
		case req.lifetime < 0:
			t.Fatalf("lifetime %v", req.lifetime)
		case req.pub == nil:
			t.Fatal("no key and no error")
		case req.pass != nil && len(*req.pass) > maxLineBytes:
			t.Fatalf("a pass phrase of %d bytes, past the line cap", len(*req.pass))
		}
	})
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

func pubkeyDER(t testing.TB) []byte {
	t.Helper()
	_, der, err := gsi.NewDelegationKey()
	if err != nil {
		t.Fatal(err)
	}
	return der
}
