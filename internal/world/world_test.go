package world

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/leakcheck"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/transfer"
)

// thirdParty seeds /m.bin at src, logs in to both sites from one laptop and
// copies it to dst with opts.
func thirdParty(t *testing.T, nw *netsim.Network, src, dst *Site, opts gridftp.ThirdPartyOptions) error {
	t.Helper()
	if err := src.Put("/m.bin", bytes.Repeat([]byte{0xA5}, 64<<10)); err != nil {
		t.Fatal(err)
	}
	laptop := nw.Host("laptop")
	cSrc, err := src.Connect(laptop, gridftp.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cSrc.Close()
	cDst, err := dst.Connect(laptop, gridftp.DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer cDst.Close()
	_, err = gridftp.ThirdParty(cSrc, "/m.bin", cDst, "/m.bin", opts)
	return err
}

func newSite(t *testing.T, nw *netsim.Network, name string) *Site {
	t.Helper()
	s, err := NewSite(nw, name, gridftp.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// Fig 4, then Fig 5: two sites with their own CAs cannot authenticate each
// other's data channel until the client hands the destination the source's
// credential.
func TestCrossCASitesNeedDCSC(t *testing.T) {
	nw := netsim.NewNetwork()
	a, b := newSite(t, nw, "siteA"), newSite(t, nw, "siteB")
	if err := thirdParty(t, nw, a, b, gridftp.ThirdPartyOptions{}); err == nil {
		t.Fatal("a cross-CA third-party copy succeeded without DCSC")
	}
	if err := thirdParty(t, nw, a, b, gridftp.ThirdPartyOptions{DCSC: a.User, DCSCTarget: gridftp.DCSCDest}); err != nil {
		t.Fatalf("DCSC P to the destination: %v", err)
	}
	f, err := b.Storage.Open(User, "/m.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n, _ := f.Size(); n != 64<<10 {
		t.Fatalf("destination holds %d bytes, want %d", n, 64<<10)
	}
}

func TestSameCAPeerNeedsNoDCSC(t *testing.T) {
	nw := netsim.NewNetwork()
	a := newSite(t, nw, "siteA")
	peer, err := a.Peer(nw, "siteA2")
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := thirdParty(t, nw, a, peer, gridftp.ThirdPartyOptions{}); err != nil {
		t.Fatalf("same-CA third-party copy: %v", err)
	}
}

func TestEndpointLogsEveryUserIn(t *testing.T) {
	nw := netsim.NewNetwork()
	users := map[string]string{}
	for i := 0; i < 3; i++ {
		users[fmt.Sprintf("user%d", i)] = fmt.Sprintf("pw%d", i)
	}
	ep, err := NewEndpoint(gcmu.Options{Name: "siteA", Host: nw.Host("siteA")}, users)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	laptop := nw.Host("laptop")
	for name, password := range users {
		cred, err := ep.Logon(laptop, name, pam.PasswordConv(password))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cred.DN().LastCN() != name {
			t.Errorf("%s was issued %s", name, cred.DN())
		}
	}
	if _, err := ep.Logon(laptop, "user0", pam.PasswordConv("pw1")); err == nil {
		t.Fatal("a wrong password was issued a credential")
	}
}

// Fig 6 against Fig 7: the service sees both site passwords when it
// activates with them, and none when the sites run OAuth.
func TestTrianglePasswordsSeen(t *testing.T) {
	for _, c := range []struct {
		oauth bool
		want  int
	}{{false, 2}, {true, 0}} {
		h, err := NewHosted(transfer.Config{}, gcmu.Options{WithOAuth: c.oauth})
		if err != nil {
			t.Fatal(err)
		}
		err = h.Activate()
		h.Close()
		if err != nil {
			t.Fatalf("oauth=%v: %v", c.oauth, err)
		}
		if h.Service.PasswordsSeen != c.want {
			t.Errorf("oauth=%v: the service saw %d passwords, want %d", c.oauth, h.Service.PasswordsSeen, c.want)
		}
	}
}

func TestTriangleCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	h, err := NewHosted(transfer.Config{}, gcmu.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("hosted"), 40000)
	if err := h.Activate(); err != nil {
		t.Fatal(err)
	}
	if err := h.Put("/h.bin", payload); err != nil {
		t.Fatal(err)
	}
	task, err := h.Service.Submit(User, "siteA", "/h.bin", "siteB", "/h.bin")
	if err != nil {
		t.Fatal(err)
	}
	done, err := h.Service.Wait(task.ID, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != transfer.TaskSucceeded {
		t.Fatalf("task %s: %s", done.Status, done.Error)
	}
	f, err := h.B.Storage.Open(User, "/h.bin")
	if err != nil {
		t.Fatal(err)
	}
	got, err := dsi.ReadAll(f)
	f.Close()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("destination holds %d bytes (err %v), want the %d sent", len(got), err, len(payload))
	}
	h.Close()
	if after := leakcheck.AtMost(before); after > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("leaked %d goroutines:\n%.4000s", after-before, buf[:runtime.Stack(buf, true)])
	}
}
