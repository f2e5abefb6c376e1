package experiments

import (
	"fmt"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/world"
)

// RunE12ControlSecurity verifies §II.C's control channel guarantees at the
// protocol level: authentication of control channel requests is
// obligatory, the channel is encrypted after AUTH, and no state-changing
// command runs before authorization succeeds.
func RunE12ControlSecurity() (*Table, error) {
	t := &Table{
		ID:      "E12",
		Title:   "Control channel security invariants",
		Paper:   `§II.C: "secure authentication of control channel requests (obligatory)"; "the control channel is encrypted and integrity protected by default"`,
		Columns: []string{"invariant", "probe", "observed", "verdict"},
	}
	nw := netsim.NewNetwork()
	s, err := world.NewSite(nw, "siteA", siteConfig)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	laptop := nw.Host("laptop")

	check := func(name, probe, observed string, ok bool) {
		v := "PASS"
		if !ok {
			v = "MISMATCH"
		}
		t.AddRow(name, probe, observed, v)
	}
	// login dials and reads the login's verdict, which Dial leaves owed to
	// the first read once the handshake has verified the server.
	login := func(cred *gsi.Credential, trust *gsi.TrustStore) error {
		c, err := gridftp.Dial(laptop, s.Addr, cred, trust)
		if err != nil {
			return err
		}
		defer c.Close()
		return c.Noop()
	}

	// 1. Commands before AUTH are refused with 530.
	{
		conn, err := nw.Dial("laptop", s.Addr)
		if err != nil {
			return nil, err
		}
		fc := ftp.NewConn(conn)
		fc.Expect(ftp.CodeReadyForNewUser)
		fc.Cmd("RETR", "/etc/passwd")
		r, err := fc.ReadFinalReply(nil)
		check("pre-auth commands refused", "RETR before AUTH",
			fmt.Sprintf("%d reply", r.Code), err == nil && r.Code == ftp.CodeNotLoggedIn)
		fc.Close()
	}

	// 2. Password login (USER/PASS) cannot substitute for GSI auth.
	{
		conn, _ := nw.Dial("laptop", s.Addr)
		fc := ftp.NewConn(conn)
		fc.Expect(ftp.CodeReadyForNewUser)
		fc.Cmd("USER", "alice")
		r1, _ := fc.ReadFinalReply(nil)
		fc.Cmd("PASS", "secret")
		r2, _ := fc.ReadFinalReply(nil)
		fc.Cmd("PWD", "")
		r3, _ := fc.ReadFinalReply(nil)
		check("USER/PASS is not an authentication path", "USER+PASS then PWD",
			fmt.Sprintf("%d/%d/%d replies", r1.Code, r2.Code, r3.Code),
			r3.Code == ftp.CodeNotLoggedIn)
		fc.Close()
	}

	// 3. A client without a certificate cannot complete AUTH TLS.
	{
		err := login(nil, s.Trust)
		check("client certificate obligatory", "AUTH TLS with no client cert",
			errString(err), err != nil)
	}

	// 4. A certificate from an untrusted CA is rejected.
	{
		other, err := gsi.NewCA("/O=Evil/CN=CA", time.Hour)
		if err != nil {
			return nil, err
		}
		mallory, err := other.Issue(gsi.IssueOptions{Subject: "/O=Evil/CN=mallory", Lifetime: time.Hour})
		if err != nil {
			return nil, err
		}
		clientTrust := s.Trust.Clone()
		clientTrust.AddCA(other.Certificate())
		derr := login(mallory, clientTrust)
		check("untrusted CA rejected", "login with /O=Evil credential", errString(derr), derr != nil)
	}

	// 5. An authenticated-but-unmapped identity is refused (530).
	{
		ghost, err := s.CA.Issue(gsi.IssueOptions{Subject: "/O=Grid/OU=siteA/CN=ghost", Lifetime: time.Hour})
		if err != nil {
			return nil, err
		}
		derr := login(ghost, s.Trust)
		check("authorization callout enforced", "valid cert, no local mapping", errString(derr), derr != nil)
	}

	// 6. Expired credentials are rejected.
	{
		shortLived, err := s.CA.Issue(gsi.IssueOptions{Subject: "/O=Grid/OU=siteA/CN=alice", Lifetime: time.Millisecond})
		if err != nil {
			return nil, err
		}
		time.Sleep(5 * time.Millisecond)
		derr := login(shortLived, s.Trust)
		check("expired credential rejected", "login with expired cert", errString(derr), derr != nil)
	}

	// 7. Data channel authentication requires a credential (delegation or
	//    DCSC) — a session without one cannot transfer under DCAU.
	{
		proxy, err := gsi.NewProxy(s.User, gsi.ProxyOptions{})
		if err != nil {
			return nil, err
		}
		c, err := gridftp.Dial(laptop, s.Addr, proxy, s.Trust) // no delegation
		if err != nil {
			return nil, err
		}
		if err := s.Put("/x.bin", pattern(1024)); err != nil {
			c.Close()
			return nil, err
		}
		_, gerr := c.Get("/x.bin", dsi.NewBufferFile(nil))
		check("DCAU requires delegated credential", "RETR without delegation/DCSC", errString(gerr), gerr != nil)
		c.Close()
	}

	// 8. And the same session works once delegation is performed.
	{
		c, err := s.Connect(laptop, gridftp.DialOptions{})
		if err != nil {
			return nil, err
		}
		_, gerr := c.Get("/x.bin", dsi.NewBufferFile(nil))
		check("delegation unlocks DCAU transfers", "RETR after DELG", errString(gerr), gerr == nil)
		c.Close()
	}
	return t, nil
}
