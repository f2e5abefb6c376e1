// Command myproxy-logon demonstrates the GCMU client credential flow
// (§IV.E): it installs a GCMU endpoint whose MyProxy Online CA is tied to a
// simulated site identity store, performs the logon against that CA with a
// site username/password, and prints the issued short-lived certificate —
// showing the username embedded in the DN (no external CA, no gridmap).
//
// Usage:
//
//	myproxy-logon [-user alice] [-password secret] [-lifetime 12h]
//	              [-wrong-password]  # demonstrate the failure path
//	              [observability flags]
//
// The observability flags are the set every binary here shares
// (admin.Flags). With -admin, the HTTP admin plane (Prometheus /metrics,
// the logged auth.* records at /debug/events, ...) is served on the given
// address and the process holds until SIGINT/SIGTERM.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"gridftp.dev/instant/internal/admin"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/myproxy"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/world"
)

func main() {
	user := flag.String("user", "alice", "site username")
	password := flag.String("password", "secret", "site password")
	lifetime := flag.Duration("lifetime", 12*time.Hour, "requested credential lifetime")
	wrong := flag.Bool("wrong-password", false, "attempt logon with a wrong password")
	boot := admin.Flags(flag.CommandLine)
	flag.Parse()

	d, err := boot.Start()
	if err == nil {
		err = run(*user, *password, *lifetime, *wrong, d)
		d.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "error: %v\n", err)
		os.Exit(1)
	}
}

func run(user, password string, lifetime time.Duration, wrong bool, d *admin.Daemon) error {
	nw := netsim.NewNetwork()

	// Site side: online CA over an LDAP-backed PAM stack.
	ep, err := world.NewEndpoint(gcmu.Options{Name: "siteA", Host: nw.Host("siteA"), Obs: d.Obs},
		map[string]string{user: password})
	if err != nil {
		return err
	}
	defer ep.Close()
	d.Ready()
	addr := ep.MyProxyAddr
	fmt.Printf("myproxy server: %s (CA: %s)\n\n", addr, ep.SigningCA.DN())

	attempt := password
	if wrong {
		attempt = password + "-oops"
	}
	fmt.Printf("$ myproxy-logon -b -T -s %s -l %s\n", addr, user)
	fmt.Printf("Enter MyProxy pass phrase: %s\n", maskPassword(attempt))
	cred, err := myproxy.Logon(nw.Host("laptop"), addr, user,
		pam.PasswordConv(attempt), myproxy.LogonOptions{Lifetime: lifetime})
	if err != nil {
		d.Hold()
		return fmt.Errorf("logon failed (as expected with -wrong-password): %w", err)
	}

	fmt.Printf("\nA credential was issued:\n")
	fmt.Printf("  subject:   %s\n", cred.DN())
	fmt.Printf("  username:  %s (embedded as the final CN, §IV.A)\n", cred.DN().LastCN())
	fmt.Printf("  issuer:    %s\n", gsi.IssuerDN(cred.Cert))
	fmt.Printf("  not after: %s (short-lived)\n", cred.Cert.NotAfter.Format(time.RFC3339))
	fmt.Printf("  key:       generated locally, never left this host\n\n")

	pemData, err := cred.EncodePEM()
	if err != nil {
		return err
	}
	fmt.Printf("credential bundle (%d bytes PEM):\n", len(pemData))
	preview := pemData
	if len(preview) > 300 {
		preview = preview[:300]
	}
	fmt.Printf("%s...\n", preview)
	d.Hold()
	return nil
}

func maskPassword(p string) string {
	out := make([]byte, len(p))
	for i := range out {
		out[i] = '*'
	}
	return string(out)
}
