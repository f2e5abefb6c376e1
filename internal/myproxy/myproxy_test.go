package myproxy

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"encoding/base64"
	"fmt"
	"io"
	"log/slog"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/ca"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/obs"
	"gridftp.dev/instant/internal/pam"
)

// env builds a site with an online CA behind an LDAP PAM stack and a
// running MyProxy server.
func env(t *testing.T) (*netsim.Network, *Server, string, *gsi.TrustStore, *pam.OTPAuthority) {
	t.Helper()
	signing, err := gsi.NewCA("/O=Grid/OU=siteA/CN=MyProxy CA", 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	dir := pam.NewLDAPDirectory("dc=siteA")
	dir.AddEntry("alice", "s3cret")
	otp := pam.NewOTPAuthority()
	otp.Enroll("alice", []byte("token-seed"))
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "alice"})
	stack := pam.NewStack("myproxy", accounts,
		pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}},
	)
	online := ca.New(signing, stack, "/O=Grid/OU=siteA")
	hostCred, err := signing.Issue(gsi.IssueOptions{Subject: "/O=Grid/OU=siteA/CN=myproxy-host", Lifetime: time.Hour, Host: true})
	if err != nil {
		t.Fatal(err)
	}
	nw := netsim.NewNetwork()
	srv := &Server{OnlineCA: online, HostCred: hostCred, Obs: obs.Nop()}
	addr, err := srv.ListenAndServe(nw.Host("siteA"), DefaultPort)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	trust := gsi.NewTrustStore()
	trust.AddCA(signing.Certificate())
	return nw, srv, addr.String(), trust, otp
}

func TestLogonIssuesShortLivedCert(t *testing.T) {
	nw, srv, addr, trust, _ := env(t)
	cred, err := Logon(nw.Host("laptop"), addr, "alice", pam.PasswordConv("s3cret"),
		LogonOptions{Trust: trust, Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// Username embedded in the DN (§IV.A) — the whole point of GCMU.
	if cred.DN() != "/O=Grid/OU=siteA/CN=alice" {
		t.Fatalf("issued DN %q", cred.DN())
	}
	if cred.DN().LastCN() != "alice" {
		t.Fatal("username not the final CN")
	}
	if cred.Key == nil {
		t.Fatal("client credential missing locally generated key")
	}
	// Short-lived: expires within the requested hour (+ slack).
	if time.Until(cred.Cert.NotAfter) > 2*time.Hour {
		t.Fatalf("certificate not short-lived: %v", cred.Cert.NotAfter)
	}
	// Verifies against the site trust store.
	if _, err := trust.Verify(cred.FullChain(), time.Now()); err != nil {
		t.Fatal(err)
	}
	// Usable as a proxy issuer (the client makes a proxy for sessions).
	proxy, err := gsi.NewProxy(cred, gsi.ProxyOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := trust.Verify(proxy.FullChain(), time.Now()); err != nil {
		t.Fatal(err)
	}
	if srv.OnlineCA.Issued() != 1 {
		t.Fatalf("issued count %d", srv.OnlineCA.Issued())
	}
}

// TestLogonWrongPassword: the key now arrives before the password does, and
// must not be signed over because of it — a refused conversation answers ERR,
// issues nothing, and is counted and logged as a denial.
func TestLogonWrongPassword(t *testing.T) {
	nw, srv, addr, trust, _ := env(t)
	_, err := Logon(nw.Host("laptop"), addr, "alice", pam.PasswordConv("wrong"),
		LogonOptions{Trust: trust})
	if err == nil || !strings.Contains(err.Error(), "authentication failure") {
		t.Fatalf("want authentication failure, got %v", err)
	}
	if n := srv.OnlineCA.Issued(); n != 0 {
		t.Fatalf("%d certificates issued for a wrong password", n)
	}
	reg := srv.Obs.Registry()
	if denied, total := reg.Counter("myproxy.logons_denied").Value(), reg.Counter("myproxy.logons_total").Value(); denied != 1 || total != 0 {
		t.Fatalf("myproxy.logons_denied %d, logons_total %d, want 1 and 0", denied, total)
	}
	events := srv.Obs.Events()
	if len(events) != 1 || events[0].Type != "auth.failure" || events[0].Fields["user"] != "alice" {
		t.Fatalf("events %+v, want one auth.failure for alice", events)
	}
}

// TestLogonRoundTrips pins the flight: TCP's connect, the TLS handshake with
// LOGON, PASSPHRASE and PUBKEY behind its Finished, and the one round trip
// whose answer is CERT — 3, and the CPU of a handshake and two signatures.
// With the pass phrase sent as the RESPONSE to a PROMPT it read ≥ 4.33 (and
// ≈ 5.75 while PUBKEY waited for an OK). The best of three tries is judged:
// a logon is a few milliseconds of CPU, and one try can meet a busy host.
func TestLogonRoundTrips(t *testing.T) {
	nw, _, addr, trust, _ := env(t)
	const rtt = 20 * time.Millisecond
	nw.SetLink("laptop", "siteA", netsim.LinkParams{RTT: rtt})
	best := math.Inf(1)
	for range 3 {
		start := time.Now()
		if _, err := Logon(nw.Host("laptop"), addr, "alice", pam.PasswordConv("s3cret"), LogonOptions{Trust: trust}); err != nil {
			t.Fatal(err)
		}
		best = min(best, float64(time.Since(start))/float64(rtt))
	}
	t.Logf("the best of three logons took %.2f round trips", best)
	if best > 4.2 {
		t.Fatal("want at most 4.2")
	}
}

// rawRequest completes the TLS handshake and writes request in one flight,
// as Logon does, and returns the reader of the server's answers.
func rawRequest(t *testing.T, nw *netsim.Network, addr, request string) (*tls.Conn, *bufio.Reader) {
	t.Helper()
	tc := handshaken(t, nw, addr)
	t.Cleanup(func() { tc.Close() })
	if _, err := io.WriteString(tc, request); err != nil {
		t.Fatal(err)
	}
	return tc, bufio.NewReader(tc)
}

// TestPassphraseRidesTheRequest: a request that carries the pass phrase is
// answered CERT (or ERR) on the first line back, with no prompt — and one
// that carries none, a classic client's, is still prompted and still served.
func TestPassphraseRidesTheRequest(t *testing.T) {
	key := "PUBKEY " + base64.StdEncoding.EncodeToString(pubkeyDER(t)) + "\n"
	for _, c := range []struct {
		name, request, first string
		issued               int64
	}{
		{"right pass phrase", "LOGON alice 3600\nPASSPHRASE s3cret\n" + key, "CERT ", 1},
		{"wrong pass phrase", "LOGON alice 3600\nPASSPHRASE wrong\n" + key, "ERR ", 0},
		{"no pass phrase", "LOGON alice 3600\n" + key, "PROMPT 0 ", 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			nw, srv, addr, _, _ := env(t)
			tc, br := rawRequest(t, nw, addr, c.request)
			line, err := readLine(br)
			if err != nil || !strings.HasPrefix(line, c.first) {
				t.Fatalf("first line back %q, %v; want %q…", line, err, c.first)
			}
			if c.first == "PROMPT 0 " {
				if _, err := io.WriteString(tc, "RESPONSE s3cret\n"); err != nil {
					t.Fatal(err)
				}
				if line, err = readLine(br); err != nil || !strings.HasPrefix(line, "CERT ") {
					t.Fatalf("answer to the prompted pass phrase %q, %v; want CERT", line, err)
				}
			}
			if n := srv.OnlineCA.Issued(); n != c.issued {
				t.Fatalf("%d certificates issued, want %d", n, c.issued)
			}
		})
	}
}

// TestPassphraseIsNeverLogged: after a right and a wrong logon, no log
// record — written text, kept event or span — holds either pass phrase.
func TestPassphraseIsNeverLogged(t *testing.T) {
	nw, srv, addr, trust, _ := env(t)
	var out bytes.Buffer
	srv.Obs = obs.New(&out, slog.LevelDebug)
	const wrong = "wr0ng-pass-phrase"
	if _, err := Logon(nw.Host("laptop"), addr, "alice", pam.PasswordConv("s3cret"), LogonOptions{Trust: trust}); err != nil {
		t.Fatal(err)
	}
	if _, err := Logon(nw.Host("laptop"), addr, "alice", pam.PasswordConv(wrong), LogonOptions{Trust: trust}); err == nil {
		t.Fatal("a wrong pass phrase logged on")
	}
	events := srv.Obs.Events()
	if len(events) != 2 || out.Len() == 0 {
		t.Fatalf("%d events and %d bytes of log, want the two logons'", len(events), out.Len())
	}
	records := out.String() + fmt.Sprint(events) + fmt.Sprint(srv.Obs.Tracer().Spans())
	for _, pass := range []string{"s3cret", wrong} {
		if strings.Contains(records, pass) {
			t.Errorf("pass phrase %q is in the log:\n%s", pass, records)
		}
	}
}

// TestLogonRefusesBeforePrompting: a request whose key cannot be used is
// refused before the user is asked for anything.
func TestLogonRefusesBeforePrompting(t *testing.T) {
	for name, second := range map[string]string{
		"no PUBKEY":    "RESPONSE s3cret",
		"bad base64":   "PUBKEY !!!",
		"not a key":    "PUBKEY " + base64.StdEncoding.EncodeToString([]byte("not DER")),
		"empty":        "PUBKEY ",
		"second LOGON": "LOGON alice 0",
	} {
		t.Run(name, func(t *testing.T) {
			nw, srv, addr, _, _ := env(t)
			raw, err := nw.Host("laptop").Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			tc := tls.Client(raw, &tls.Config{InsecureSkipVerify: true, MinVersion: tls.VersionTLS12})
			if _, err := fmt.Fprintf(tc, "LOGON alice 0\n%s\n", second); err != nil {
				t.Fatal(err)
			}
			line, err := readLine(bufio.NewReader(tc))
			if err != nil || !strings.HasPrefix(line, "ERR ") {
				t.Fatalf("server answered %q, %v; want ERR and no prompt", line, err)
			}
			if n := srv.OnlineCA.Issued(); n != 0 {
				t.Fatalf("%d certificates issued", n)
			}
		})
	}
}

func TestLogonUnknownUser(t *testing.T) {
	nw, _, addr, trust, _ := env(t)
	if _, err := Logon(nw.Host("laptop"), addr, "mallory", pam.PasswordConv("x"),
		LogonOptions{Trust: trust}); err == nil {
		t.Fatal("unknown user logon accepted")
	}
}

func TestLogonExcessiveLifetimeRefused(t *testing.T) {
	nw, _, addr, trust, _ := env(t)
	_, err := Logon(nw.Host("laptop"), addr, "alice", pam.PasswordConv("s3cret"),
		LogonOptions{Trust: trust, Lifetime: 1000 * time.Hour})
	if err == nil || !strings.Contains(err.Error(), "lifetime") {
		t.Fatalf("want lifetime error, got %v", err)
	}
}

func TestLogonBootstrapTrust(t *testing.T) {
	// -b mode: no trust store, accept the server cert on first use.
	nw, _, addr, _, _ := env(t)
	cred, err := Logon(nw.Host("laptop"), addr, "alice", pam.PasswordConv("s3cret"), LogonOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cred.DN().LastCN() != "alice" {
		t.Fatalf("DN %q", cred.DN())
	}
}

func TestLogonWithOTPStack(t *testing.T) {
	// Swap the PAM stack for OTP: the prompt tunnels over the protocol.
	nw, srv, addr, trust, otp := env(t)
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "alice"})
	srv.OnlineCA.Auth = pam.NewStack("myproxy", accounts,
		pam.Entry{Control: pam.Required, Module: &pam.OTPModule{Authority: otp}},
	)
	code, err := otp.NextCode("alice")
	if err != nil {
		t.Fatal(err)
	}
	var sawSecretPrompt bool
	conv := func(prompt string, echo bool) (string, error) {
		if echo {
			sawSecretPrompt = true
		}
		return code, nil
	}
	cred, err := Logon(nw.Host("laptop"), addr, "alice", conv, LogonOptions{Trust: trust})
	if err != nil {
		t.Fatal(err)
	}
	if !sawSecretPrompt {
		t.Fatal("OTP prompt metadata lost in tunneling")
	}
	if cred.DN().LastCN() != "alice" {
		t.Fatalf("DN %q", cred.DN())
	}
	// The code is single-use: a replayed logon must fail.
	if _, err := Logon(nw.Host("laptop"), addr, "alice", conv, LogonOptions{Trust: trust}); err == nil {
		t.Fatal("OTP replay logon accepted")
	}
}

// TestLogonWithTwoPrompts: a stack that asks twice — password, then one-time
// code — still logs on: the pass phrase rides the request, the code's prompt
// alone crosses the wire, and CERT follows its answer. The right password
// with a wrong code gets ERR and no certificate.
func TestLogonWithTwoPrompts(t *testing.T) {
	nw, srv, addr, trust, otp := env(t)
	dir := pam.NewLDAPDirectory("dc=siteA")
	dir.AddEntry("alice", "s3cret")
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "alice"})
	srv.OnlineCA.Auth = pam.NewStack("myproxy", accounts,
		pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}},
		pam.Entry{Control: pam.Required, Module: &pam.OTPModule{Authority: otp}},
	)
	code, err := otp.NextCode("alice")
	if err != nil {
		t.Fatal(err)
	}
	// Logon asks for the pass phrase before it dials; every later question
	// is a PROMPT that crossed the wire.
	answers := func(code string) (pam.Conversation, *[]string) {
		var prompts []string
		return func(prompt string, echo bool) (string, error) {
			prompts = append(prompts, prompt)
			if strings.Contains(prompt, "One-time") {
				return code, nil
			}
			return "s3cret", nil
		}, &prompts
	}
	want := []string{"MyProxy pass phrase: ", "One-time code: "}
	conv, prompts := answers("000000")
	if _, err := Logon(nw.Host("laptop"), addr, "alice", conv, LogonOptions{Trust: trust}); err == nil {
		t.Fatal("a wrong one-time code logged on")
	}
	if !slices.Equal(*prompts, want) || srv.OnlineCA.Issued() != 0 {
		t.Fatalf("wrong code: asked %q, %d issued; want %q (one PROMPT on the wire) and 0", *prompts, srv.OnlineCA.Issued(), want)
	}
	conv, prompts = answers(code)
	cred, err := Logon(nw.Host("laptop"), addr, "alice", conv, LogonOptions{Trust: trust})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(*prompts, want) || cred.DN().LastCN() != "alice" || cred.Key == nil {
		t.Fatalf("asked %q, DN %q; want %q (one PROMPT on the wire)", *prompts, cred.DN(), want)
	}
}

func TestOnlineCADirect(t *testing.T) {
	signing, _ := gsi.NewCA("/O=x/CN=CA", time.Hour)
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "u"})
	dir := pam.NewLDAPDirectory("dc=x")
	dir.AddEntry("u", "pw")
	stack := pam.NewStack("svc", accounts, pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}})
	online := ca.New(signing, stack, "/O=x")
	cred, err := online.Logon("u", pam.PasswordConv("pw"), pubkeyOf(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	if cred.DN() != "/O=x/CN=u" {
		t.Fatalf("DN %q", cred.DN())
	}
	if _, err := online.Logon("u", pam.PasswordConv("bad"), pubkeyOf(t), 0); err == nil {
		t.Fatal("bad password accepted")
	}
	if _, err := online.Logon("u", pam.PasswordConv("pw"), pubkeyOf(t), -time.Hour); err == nil {
		t.Fatal("negative lifetime accepted")
	}
}

func pubkeyOf(t *testing.T) interface{} {
	t.Helper()
	cred, err := gsi.SelfSignedCredential("/CN=tmp", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	return &cred.Key.PublicKey
}
