// Globusonline: the hosted transfer service of the paper's §VI.
//
// Two GCMU endpoints in unrelated trust domains register with a Globus
// Online-style service. The user activates both (here via OAuth, so the
// password never crosses the service — Fig 7), submits a third-party
// transfer, and the service handles everything: DCSC across the CA
// boundary, auto-tuned parallelism, restart markers, and — with a fault
// injected mid-transfer — reauthentication and restart from the last
// checkpoint (§VI.B).
//
// Run with: go run ./examples/globusonline
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/oauth"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/transfer"
)

func installEndpoint(nw *netsim.Network, name, password string) (*gcmu.Endpoint, *dsi.FaultStorage) {
	dir := pam.NewLDAPDirectory("dc=" + name)
	dir.AddEntry("alice", password)
	accounts := pam.NewAccountDB()
	accounts.Add(pam.Account{Name: "alice"})
	auth := pam.NewStack("myproxy", accounts,
		pam.Entry{Control: pam.Required, Module: &pam.LDAPModule{Dir: dir}})
	mem := dsi.NewMemStorage()
	mem.AddUser("alice")
	faulty := dsi.NewFaultStorage(mem)
	ep, err := gcmu.Install(gcmu.Options{
		Name: name, Host: nw.Host(name), Auth: auth, Accounts: accounts,
		Storage: faulty, WithOAuth: true, MarkerInterval: 20 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	ep.OAuth.RegisterClient(transfer.OAuthClient)
	return ep, faulty
}

func main() {
	nw := netsim.NewNetwork()
	epA, _ := installEndpoint(nw, "siteA", "pwA")
	defer epA.Close()
	epB, faultB := installEndpoint(nw, "siteB", "pwB")
	defer epB.Close()

	// The hosted service runs on its own host, like the real SaaS.
	svc := transfer.NewService(nw.Host("globusonline"), transfer.Config{
		RetryDelay: 20 * time.Millisecond,
	})
	defer svc.Close() // the session pairs it keeps warm between tasks
	for _, ep := range []*gcmu.Endpoint{epA, epB} {
		if err := svc.RegisterEndpoint(transfer.Endpoint{
			Name: ep.Name, GridFTPAddr: ep.GridFTPAddr, MyProxyAddr: ep.MyProxyAddr,
			OAuthAddr: ep.OAuthAddr, Trust: ep.Trust, CADN: ep.SigningCA.DN(),
		}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("endpoints registered: %v\n", svc.Endpoints())

	// OAuth activation (Fig 7): the user's browser logs in at each SITE;
	// the service only ever sees the authorization code.
	login := func(ep *gcmu.Endpoint, pw string) transfer.UserLoginFunc {
		return func(base, session string) (string, error) {
			browser := oauth.HTTPClient(nw.Host("laptop"), ep.Trust)
			return oauth.Login(browser, base, session, "alice", pw)
		}
	}
	if err := svc.ActivateWithOAuth("siteA", "alice", login(epA, "pwA")); err != nil {
		log.Fatal(err)
	}
	if err := svc.ActivateWithOAuth("siteB", "alice", login(epB, "pwB")); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("activated via OAuth; passwords seen by the service: %d\n\n", svc.PasswordsSeen)

	// Seed a dataset and slow the inter-site link so markers accumulate.
	payload := bytes.Repeat([]byte("climate-model-output "), 200000) // ~4 MiB
	if err := epA.Storage.Mkdir("alice", "/esg"); err != nil {
		log.Fatal(err)
	}
	if err := epB.Storage.Mkdir("alice", "/esg"); err != nil {
		log.Fatal(err)
	}
	f, err := epA.Storage.Create("alice", "/esg/run42.nc")
	if err != nil {
		log.Fatal(err)
	}
	dsi.WriteAll(f, payload)
	f.Close()
	nw.SetLink("siteA", "siteB", netsim.LinkParams{
		Bandwidth: 25e6, RTT: 5 * time.Millisecond, StreamWindow: 1 << 22,
	})

	// Inject a receive-side failure at ~50% — a disk error at site B.
	faultB.Arm(int64(len(payload) / 2))
	fmt.Println("fault armed: site B's storage will fail mid-transfer")

	task, err := svc.Submit("alice", "siteA", "/esg/run42.nc", "siteB", "/esg/run42.nc")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s: siteA:/esg/run42.nc -> siteB:/esg/run42.nc (%d bytes)\n\n", task.ID, len(payload))

	done, err := svc.Wait(task.ID, 2*time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("task status:   %s\n", done.Status)
	fmt.Printf("attempts:      %d (first failed on the injected fault)\n", done.Attempts)
	fmt.Printf("parallelism:   %d (auto-tuned for the file size)\n", done.Parallelism)
	fmt.Printf("bytes moved:   %d across all attempts (file is %d)\n", done.BytesTransferred, len(payload))
	fmt.Printf("saved by ckpt: ~%d bytes not re-sent thanks to restart markers\n",
		int64(done.Attempts)*int64(len(payload))-done.BytesTransferred)

	g, err := epB.Storage.Open("alice", "/esg/run42.nc")
	if err != nil {
		log.Fatal(err)
	}
	got, _ := dsi.ReadAll(g)
	g.Close()
	if !bytes.Equal(got, payload) {
		log.Fatal("content mismatch after recovery")
	}
	fmt.Println("verification:  destination content matches byte for byte")
}
