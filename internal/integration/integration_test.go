// Package integration holds cross-package scenario tests that exercise
// the full stack in combinations the per-package tests do not: real-disk
// (POSIX) storage behind GridFTP, archival staging latency, multi-user
// concurrency, and mixed identity backends.
package integration

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/usagestats"
	"gridftp.dev/instant/internal/world"
)

// installLDAP builds a GCMU endpoint with an LDAP stack and n users
// (user0..userN with password "pw<i>").
func installLDAP(t *testing.T, nw *netsim.Network, name string, users int, storage dsi.Storage, mut ...func(*gcmu.Options)) *gcmu.Endpoint {
	t.Helper()
	passwords := map[string]string{}
	for i := 0; i < users; i++ {
		passwords[fmt.Sprintf("user%d", i)] = fmt.Sprintf("pw%d", i)
	}
	opts := gcmu.Options{Name: name, Host: nw.Host(name), Storage: storage}
	for _, m := range mut {
		m(&opts)
	}
	ep, err := world.NewEndpoint(opts, passwords)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ep.Close)
	return ep
}

func TestPosixBackedEndpoint(t *testing.T) {
	// Real files on real disk through the whole protocol stack.
	nw := netsim.NewNetwork()
	posix, err := dsi.NewPosixStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := posix.AddUser(fmt.Sprintf("user%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ep := installLDAP(t, nw, "diskside", 2, posix)
	client, err := ep.Connect(nw.Host("laptop"), "user0", pam.PasswordConv("pw0"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	payload := bytes.Repeat([]byte("on-disk"), 100000)
	if err := client.Mkdir("/results"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Put("/results/run.out", dsi.NewBufferFile(payload)); err != nil {
		t.Fatal(err)
	}
	// Verify through the DSI (i.e. the actual file on disk).
	f, err := posix.Open("user0", "/results/run.out")
	if err != nil {
		t.Fatal(err)
	}
	got, err := dsi.ReadAll(f)
	f.Close()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("disk content mismatch (%d bytes, err=%v)", len(got), err)
	}
	// And back out over the wire.
	dst := dsi.NewBufferFile(nil)
	if _, err := client.Get("/results/run.out", dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), payload) {
		t.Fatal("round-trip mismatch")
	}
}

func TestArchivalColdReadPaysStageLatency(t *testing.T) {
	nw := netsim.NewNetwork()
	mem := dsi.NewMemStorage()
	mem.AddUser("user0")
	// Pre-populate the backend directly (file exists but is "on tape").
	f, _ := mem.Create("user0", "/tape.bin")
	dsi.WriteAll(f, bytes.Repeat([]byte("x"), 4096))
	f.Close()
	arch := dsi.NewArchivalStorage(mem, 150*time.Millisecond, time.Minute)
	ep := installLDAP(t, nw, "archive", 1, arch)
	client, err := ep.Connect(nw.Host("laptop"), "user0", pam.PasswordConv("pw0"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	start := time.Now()
	if _, err := client.Get("/tape.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 140*time.Millisecond {
		t.Fatalf("cold read took %v; stage latency not paid", d)
	}
	// Second read is hot.
	start = time.Now()
	if _, err := client.Get("/tape.bin", dsi.NewBufferFile(nil)); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("warm read took %v; should be staged", d)
	}
}

func TestManyUsersConcurrently(t *testing.T) {
	// Several users hammer one endpoint at once; sandboxes must hold.
	const users = 6
	nw := netsim.NewNetwork()
	ep := installLDAP(t, nw, "shared", users, nil)

	var wg sync.WaitGroup
	errs := make(chan error, users)
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			u := fmt.Sprintf("user%d", i)
			client, err := ep.Connect(nw.Host(fmt.Sprintf("laptop%d", i)), u, pam.PasswordConv(fmt.Sprintf("pw%d", i)))
			if err != nil {
				errs <- fmt.Errorf("%s connect: %w", u, err)
				return
			}
			defer client.Close()
			mine := bytes.Repeat([]byte{byte(i)}, 50000)
			for round := 0; round < 3; round++ {
				if _, err := client.Put("/mine.bin", dsi.NewBufferFile(mine)); err != nil {
					errs <- fmt.Errorf("%s put: %w", u, err)
					return
				}
				dst := dsi.NewBufferFile(nil)
				if _, err := client.Get("/mine.bin", dst); err != nil {
					errs <- fmt.Errorf("%s get: %w", u, err)
					return
				}
				if !bytes.Equal(dst.Bytes(), mine) {
					errs <- fmt.Errorf("%s: cross-user data bleed", u)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestUsageStatsFlowThroughServer(t *testing.T) {
	nw := netsim.NewNetwork()
	collector := usagestats.NewCollector()
	ep := installLDAP(t, nw, "metered", 1, nil, func(o *gcmu.Options) {
		o.Usage = collector
	})
	client, err := ep.Connect(nw.Host("laptop"), "user0", pam.PasswordConv("pw0"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	payload := bytes.Repeat([]byte("y"), 12345)
	for i := 0; i < 4; i++ {
		if _, err := client.Put(fmt.Sprintf("/f%d", i), dsi.NewBufferFile(payload)); err != nil {
			t.Fatal(err)
		}
	}
	dst := dsi.NewBufferFile(nil)
	if _, err := client.Get("/f0", dst); err != nil {
		t.Fatal(err)
	}
	transfers, bytesMoved := collector.Totals()
	if transfers != 5 {
		t.Fatalf("collector saw %d transfers, want 5", transfers)
	}
	if bytesMoved != 5*12345 {
		t.Fatalf("collector saw %d bytes, want %d", bytesMoved, 5*12345)
	}
	if collector.EndpointCount() != 1 {
		t.Fatalf("endpoints %d", collector.EndpointCount())
	}
}

func TestOTPBackedEndpoint(t *testing.T) {
	// GCMU over an OTP-only PAM stack: each logon consumes a fresh code.
	nw := netsim.NewNetwork()
	otp := pam.NewOTPAuthority()
	otp.Enroll("user0", []byte("hw-token-seed"))
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "user0"})
	stack := pam.NewStack("myproxy", accounts,
		pam.Entry{Control: pam.Required, Module: &pam.OTPModule{Authority: otp}})
	ep, err := gcmu.Install(gcmu.Options{
		Name: "otpsite", Host: nw.Host("otpsite"), Auth: stack, Accounts: accounts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	code, err := otp.NextCode("user0")
	if err != nil {
		t.Fatal(err)
	}
	client, err := ep.Connect(nw.Host("laptop"), "user0", pam.PasswordConv(code))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.Put("/x", dsi.NewBufferFile([]byte("ok"))); err != nil {
		t.Fatal(err)
	}
	// Replaying the same code must fail.
	if _, err := ep.Logon(nw.Host("laptop"), "user0", pam.PasswordConv(code)); err == nil {
		t.Fatal("OTP replay produced a credential")
	}
}

func TestWanShapedEndToEnd(t *testing.T) {
	// Whole-stack sanity under a shaped WAN: GCMU endpoint, 30ms RTT,
	// parallel transfer completes and respects the bandwidth cap.
	nw := netsim.NewNetwork()
	nw.SetDefaultLink(netsim.LinkParams{
		Bandwidth: 10e6, RTT: 30 * time.Millisecond, StreamWindow: 1 << 20,
	})
	ep := installLDAP(t, nw, "far", 1, nil)
	client, err := ep.Connect(nw.Host("laptop"), "user0", pam.PasswordConv("pw0"))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := client.SetParallelism(4); err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("wan"), 400000) // 1.2 MB
	start := time.Now()
	if _, err := client.Put("/wan.bin", dsi.NewBufferFile(payload)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// 1.2 MB at 10 MB/s floor is 120 ms; with RTTs it must exceed that,
	// and it cannot beat the physical minimum.
	if elapsed < 100*time.Millisecond {
		t.Fatalf("transfer took %v; faster than the link allows", elapsed)
	}
	dst := dsi.NewBufferFile(nil)
	if _, err := client.Get("/wan.bin", dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst.Bytes(), payload) {
		t.Fatal("content mismatch over shaped WAN")
	}
}
