package gridftp

import (
	"strings"
	"testing"

	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/netsim"
)

// rawSession opens an authenticated control channel, reads the login's
// replies Dial left owed, and returns the protocol-level connection for
// hand-driven command tests.
func rawSession(t *testing.T, s *site, nw *netsim.Network) *ftp.Conn {
	t.Helper()
	c := s.connect(t, nw.Host("laptop"), false)
	if err := c.Settle(); err != nil {
		t.Fatal(err)
	}
	return c.ctrl
}

// TestServerSurvivesGarbageCommands throws malformed and unexpected input
// at an authenticated session: every line must produce an orderly error
// reply (or drop), never a hang or panic, and the session must remain
// usable afterwards.
func TestServerSurvivesGarbageCommands(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	ctrl := rawSession(t, s, nw)

	garbage := []string{
		"XYZZY",
		"RETR",                      // RETR with no path and no data channel
		"STOR /x",                   // STOR with no data channel
		"OPTS RETR Parallelism=0;",  // out of range
		"OPTS RETR Parallelism=-3;", // negative
		"OPTS RETR BlockSize=7;",    // too small
		"MODE Q",
		"TYPE Z",
		"PORT not-an-address",
		"SPOR",
		"REST -5",
		"REST 10-5",
		"ERET P x y /f",
		"ERET P 0 10 /f",       // well formed: the verb is not served
		"OPTS RETR Deflate=1;", // nor is data-channel compression
		"DCSC",
		"CKSM MD5",
		"RNTO /x", // RNTO without RNFR
		"MLST /does/not/exist",
		"MLSC /does/not/exist",
		"MLSC /../escape",
		"CWD /does/not/exist",
		"SIZE /does/not/exist",
	}
	for _, line := range garbage {
		name, params, _ := strings.Cut(line, " ")
		if err := ctrl.Cmd(name, "%s", params); err != nil {
			t.Fatalf("send %q: %v", line, err)
		}
		r, err := ctrl.ReadFinalReply(nil)
		if err != nil {
			t.Fatalf("no reply for %q: %v", line, err)
		}
		if r.Code < 400 {
			t.Errorf("garbage %q got success reply %s", line, r)
		}
	}
	// Session still healthy.
	if err := ctrl.Cmd("NOOP", ""); err != nil {
		t.Fatal(err)
	}
	if r, err := ctrl.ReadFinalReply(nil); err != nil || r.Code != 200 {
		t.Fatalf("session dead after garbage: %v %v", r, err)
	}
}

// TestListingRequiresLogin: MLSC reads the storage, so like MLST and MLSD it
// answers 530 on a control channel that has not authenticated — and the
// session is still there for the AUTH that follows.
func TestListingRequiresLogin(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	s.putFile(t, "/secret.bin", pattern(10))
	raw, err := nw.Host("laptop").Dial(s.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	ctrl := ftp.NewConn(raw)
	if _, err := ctrl.Expect(ftp.CodeReadyForNewUser); err != nil {
		t.Fatal(err)
	}
	for _, verb := range []string{"MLSC", "MLST", "MLSD"} {
		if err := ctrl.Cmd(verb, "/"); err != nil {
			t.Fatal(err)
		}
		if r, err := ctrl.ReadFinalReply(nil); err != nil || r.Code != ftp.CodeNotLoggedIn || len(r.Lines) != 1 {
			t.Errorf("%s before login: %v %v, want a one-line 530", verb, r, err)
		}
	}
	if err := ctrl.Cmd("AUTH", "TLS"); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Expect(ftp.CodeAuthOK); err != nil {
		t.Fatalf("session unusable after refused listings: %v", err)
	}
}

// TestServerRejectsOversizeParallelism guards the resource bound.
func TestServerRejectsOversizeParallelism(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	ctrl := rawSession(t, s, nw)
	ctrl.Cmd("OPTS", "RETR Parallelism=999,999,999;")
	r, err := ctrl.ReadFinalReply(nil)
	if err != nil || r.Code != ftp.CodeParamSyntaxError {
		t.Fatalf("parallelism 999: %v %v", r, err)
	}
}

// TestRelativePathsResolveAgainstCWD exercises CWD-relative addressing
// across command types.
func TestRelativePathsResolveAgainstCWD(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	if err := c.Mkdir("/deep"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.cmdExpect("CWD", "/deep", ftp.CodeFileActionOK); err != nil {
		t.Fatal(err)
	}
	s.putFile(t, "/deep/rel.bin", pattern(100))
	if n, err := c.Size("rel.bin"); err != nil || n != 100 {
		t.Fatalf("relative SIZE: %d %v", n, err)
	}
	if _, err := c.Checksum("MD5", "rel.bin", 0, -1); err != nil {
		t.Fatalf("relative CKSM: %v", err)
	}
	if err := c.Rename("rel.bin", "rel2.bin"); err != nil {
		t.Fatalf("relative RNFR/RNTO: %v", err)
	}
	if _, err := c.cmdExpect("DELE", "rel2.bin", ftp.CodeFileActionOK); err != nil {
		t.Fatalf("relative DELE: %v", err)
	}
}
