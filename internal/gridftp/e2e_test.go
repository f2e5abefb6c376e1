package gridftp

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
)

func TestLoginAndSimpleOps(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), false)

	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	feats, err := c.Features()
	if err != nil {
		t.Fatal(err)
	}
	// DCSC is how a client discovers the paper's extension (§V); ERET is
	// not served.
	if !slices.Contains(feats, "DCSC P,D") || slices.Contains(feats, "ERET") {
		t.Fatalf("features %v: want DCSC P,D and no ERET", feats)
	}
	if err := c.Mkdir("/data"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.cmdExpect("CWD", "/data", ftp.CodeFileActionOK); err != nil {
		t.Fatal(err)
	}
	s.putFile(t, "/data/x.bin", pattern(1234))
	n, err := c.Size("x.bin") // relative to CWD
	if err != nil {
		t.Fatal(err)
	}
	if n != 1234 {
		t.Fatalf("size %d", n)
	}
	facts, err := c.Stat("/data/x.bin")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(facts, "Size=1234") {
		t.Fatalf("MLST facts %q", facts)
	}
	if err := c.Rename("/data/x.bin", "/data/y.bin"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.cmdExpect("DELE", "/data/y.bin", ftp.CodeFileActionOK); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Size("/data/y.bin"); err == nil {
		t.Fatal("deleted file still has size")
	}
}

func TestLoginRejectsUnknownCA(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	other, err := gsi.NewCA("/O=Other/CN=CA", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mallory, err := other.Issue(gsi.IssueOptions{Subject: "/O=Other/CN=mallory", Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	trust := gsi.NewTrustStore()
	trust.AddCA(s.ca.Certificate())
	trust.AddCA(other.Certificate()) // client trusts the server; server must still reject the client
	if _, err := Dial(nw.Host("laptop"), s.addr, mallory, trust); err == nil {
		t.Fatal("login with untrusted CA should fail")
	}
}

func TestLoginRejectsUnmappedUser(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	// Valid CA, but no gridmap entry for bob.
	bob, err := s.ca.Issue(gsi.IssueOptions{Subject: "/O=Grid/OU=siteA/CN=bob", Lifetime: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Dial(nw.Host("laptop"), s.addr, bob, s.trust)
	if err == nil {
		t.Fatal("unmapped user should be rejected")
	}
	var re *ftp.ReplyError
	if !errors.As(err, &re) || re.Reply.Code != ftp.CodeNotLoggedIn {
		t.Fatalf("want 530 reply error, got %v", err)
	}
}

func TestPutGetRoundTripModeE(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	if err := c.SetParallelism(4); err != nil {
		t.Fatal(err)
	}
	payload := pattern(3*DefaultBlockSize + 777)
	stats, err := c.Put("/big.bin", dsi.NewBufferFile(payload))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != int64(len(payload)) {
		t.Fatalf("put bytes %d want %d", stats.Bytes, len(payload))
	}
	if got := s.readFile(t, "/big.bin"); !bytes.Equal(got, payload) {
		t.Fatalf("server content mismatch (%d vs %d bytes)", len(got), len(payload))
	}
	dst := dsi.NewBufferFile(nil)
	gstats, err := c.Get("/big.bin", dst)
	if err != nil {
		t.Fatal(err)
	}
	if gstats.Bytes != int64(len(payload)) {
		t.Fatalf("get bytes %d", gstats.Bytes)
	}
	if !bytes.Equal(dst.Bytes(), payload) {
		t.Fatal("downloaded content mismatch")
	}
}

func TestPutGetStreamMode(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	if err := c.SetMode(ModeStream); err != nil {
		t.Fatal(err)
	}
	payload := pattern(100000)
	if _, err := c.Put("/s.bin", dsi.NewBufferFile(payload)); err != nil {
		t.Fatal(err)
	}
	if got := s.readFile(t, "/s.bin"); !bytes.Equal(got, payload) {
		t.Fatal("stream put mismatch")
	}
	dst := dsi.NewBufferFile(nil)
	if _, err := c.Get("/s.bin", dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), payload) {
		t.Fatal("stream get mismatch")
	}
}

func TestEmptyFileTransfer(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	if _, err := c.Put("/empty", dsi.NewBufferFile(nil)); err != nil {
		t.Fatal(err)
	}
	if got := s.readFile(t, "/empty"); len(got) != 0 {
		t.Fatalf("empty file has %d bytes", len(got))
	}
	dst := dsi.NewBufferFile(nil)
	if _, err := c.Get("/empty", dst); err != nil {
		t.Fatal(err)
	}
	if len(dst.Bytes()) != 0 {
		t.Fatal("downloaded empty file not empty")
	}
}

func TestChannelCachingReusesConnections(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	payload := pattern(10000)
	for i := 0; i < 5; i++ {
		if _, err := c.Put("/f.bin", dsi.NewBufferFile(payload)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if len(c.data.pooledDialed) != c.spec.Parallelism {
		t.Fatalf("expected pooled channels after puts, have %d", len(c.data.pooledDialed))
	}
	// Gets use the accepted pool.
	dst := dsi.NewBufferFile(nil)
	for i := 0; i < 3; i++ {
		if _, err := c.Get("/f.bin", dst); err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
	}
	if !bytes.Equal(dst.Bytes(), payload) {
		t.Fatal("content mismatch after cached gets")
	}
}

func TestParallelismChangeFlushesCache(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	payload := pattern(50000)
	if _, err := c.Put("/f", dsi.NewBufferFile(payload)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetParallelism(3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Put("/f", dsi.NewBufferFile(payload)); err != nil {
		t.Fatal(err)
	}
	if got := s.readFile(t, "/f"); !bytes.Equal(got, payload) {
		t.Fatal("content mismatch after parallelism change")
	}
}

func TestRestartPutResumesFromRanges(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	payload := pattern(200000)

	// First, upload only the first half by pretending the second half was
	// already sent... actually simulate the opposite: upload fully, then
	// re-upload claiming the first 150000 bytes are already there: the
	// transfer should move only the remainder.
	if _, err := c.Put("/r.bin", dsi.NewBufferFile(payload)); err != nil {
		t.Fatal(err)
	}
	c.SetRestart([]Range{{0, 150000}})
	stats, err := c.Put("/r.bin", dsi.NewBufferFile(payload))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != 50000 {
		t.Fatalf("restart put moved %d bytes, want 50000", stats.Bytes)
	}
	if got := s.readFile(t, "/r.bin"); !bytes.Equal(got, payload) {
		t.Fatal("content mismatch after restarted put")
	}
}

func TestRestartMarkersEmitted(t *testing.T) {
	nw := netsim.NewNetwork()
	// Shape the link so the transfer takes long enough for markers.
	nw.SetLink("laptop", "siteA", netsim.LinkParams{
		Bandwidth: 2e6, RTT: 5 * time.Millisecond, StreamWindow: 1 << 20,
	})
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	setup(t, c, SessionSetup{MarkerInterval: 30 * time.Millisecond})
	payload := pattern(600000) // ~300ms at 2 MB/s
	stats, err := c.Put("/m.bin", dsi.NewBufferFile(payload))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Markers) == 0 {
		t.Fatal("no restart markers received during slow put")
	}
}

func TestMlsdListing(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	s.putFile(t, "/a.txt", []byte("a"))
	s.putFile(t, "/b.txt", []byte("bb"))
	if err := c.Mkdir("/sub"); err != nil {
		t.Fatal(err)
	}
	entries, err := c.List("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("listing %v", entries)
	}
	if !strings.Contains(entries[0], "a.txt") || !strings.Contains(entries[2], "Type=dir") {
		t.Fatalf("listing content %v", entries)
	}
}

func TestDCAURequiresCredential(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), false) // no delegation
	s.putFile(t, "/f", pattern(100))
	// Server-side DCAU requires a delegated credential; transfer must be
	// refused with 530.
	dst := dsi.NewBufferFile(nil)
	_, err := c.Get("/f", dst)
	var re *ftp.ReplyError
	if !errors.As(err, &re) || re.Reply.Code != ftp.CodeNotLoggedIn {
		t.Fatalf("want 530 for DCAU without delegation, got %v", err)
	}
	// DCAU N waives the requirement.
	if err := c.SetDCAU(DCAUNone); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("/f", dst); err != nil {
		t.Fatal(err)
	}
}

func TestProtLevelsTransferCorrectly(t *testing.T) {
	for _, prot := range []ProtLevel{ProtClear, ProtSafe, ProtPrivate} {
		t.Run(string(rune(prot)), func(t *testing.T) {
			nw := netsim.NewNetwork()
			s := newSite(t, nw, "siteA")
			c := s.connect(t, nw.Host("laptop"), true)
			if err := c.SetProt(prot); err != nil {
				t.Fatal(err)
			}
			payload := pattern(300000)
			if _, err := c.Put("/p.bin", dsi.NewBufferFile(payload)); err != nil {
				t.Fatal(err)
			}
			if got := s.readFile(t, "/p.bin"); !bytes.Equal(got, payload) {
				t.Fatal("content mismatch")
			}
			dst := dsi.NewBufferFile(nil)
			if _, err := c.Get("/p.bin", dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst.Bytes(), payload) {
				t.Fatal("download mismatch")
			}
		})
	}
}
