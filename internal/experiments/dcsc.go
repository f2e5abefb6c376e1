package experiments

import (
	"time"

	"gridftp.dev/instant/internal/gridftp"
	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/world"
)

// RunE4DcscMatrix reproduces Figures 4 and 5 plus §V: the data channel
// authentication failure between security domains, and its resolution by
// the DCSC command under every context-type variant the paper defines —
// including the case where one endpoint is a legacy server that knows
// nothing about DCSC.
func RunE4DcscMatrix() (*Table, error) {
	t := &Table{
		ID:      "E4",
		Title:   "Third-party DCAU across security domains: failure and DCSC fix",
		Paper:   "Fig 4 (DCAU fails when CA-A unknown to endpoint B), Fig 5 / §V (DCSC fixes it; works with one legacy endpoint; self-signed contexts for higher security)",
		Columns: []string{"scenario", "DCSC", "expected", "observed", "verdict"},
	}

	type scenario struct {
		name     string
		sameCA   bool
		dcscWhat string // "", "credA->dst", "credA->src", "selfsigned-both", "selfsigned-dst-only"
		expectOK bool
	}
	scenarios := []scenario{
		{"same CA, conventional DCAU", true, "", true},
		{"cross CA, conventional DCAU", false, "", false},
		{"cross CA, DCSC P (cred A) to destination; source is DCSC-oblivious", false, "credA->dst", true},
		{"cross CA, DCSC P (cred B) to source; destination is DCSC-oblivious", false, "credB->src", true},
		{"cross CA, random self-signed DCSC on both endpoints", false, "selfsigned-both", true},
		{"cross CA, self-signed DCSC on destination only", false, "selfsigned-dst-only", false},
		{"cross CA, DCSC D after DCSC P (context reverted)", false, "revert", false},
	}

	for _, sc := range scenarios {
		ok, _ := measureDcscScenario(sc.sameCA, sc.dcscWhat)
		observed := "transfer succeeded"
		if !ok {
			observed = "transfer refused"
		}
		expected := "succeed"
		if !sc.expectOK {
			expected = "fail"
		}
		verdict := "PASS"
		if ok != sc.expectOK {
			verdict = "MISMATCH"
		}
		dcscLabel := sc.dcscWhat
		if dcscLabel == "" {
			dcscLabel = "none"
		}
		t.AddRow(sc.name, dcscLabel, expected, observed, verdict)
	}
	t.Note("each scenario: fresh pair of sites, third-party transfer of 256 KiB; 'DCSC-oblivious' endpoints never receive the command")
	return t, nil
}

// measureDcscScenario executes one matrix cell on a fresh pair of sites;
// it returns whether the third-party transfer succeeded.
func measureDcscScenario(sameCA bool, dcscWhat string) (bool, error) {
	nw := netsim.NewNetwork()
	src, err := world.NewSite(nw, "siteA", siteConfig)
	if err != nil {
		return false, err
	}
	defer src.Close()

	var dst *world.Site
	if sameCA {
		// Build the destination inside site A's trust domain.
		dst, err = src.Peer(nw, "siteA2")
	} else {
		dst, err = world.NewSite(nw, "siteB", siteConfig)
	}
	if err != nil {
		return false, err
	}
	defer dst.Close()

	laptop := nw.Host("laptop")
	cSrc, err := src.Connect(laptop, gridftp.DialOptions{})
	if err != nil {
		return false, err
	}
	defer cSrc.Close()
	cDst, err := dst.Connect(laptop, gridftp.DialOptions{})
	if err != nil {
		return false, err
	}
	defer cDst.Close()

	if err := src.Put("/m.bin", pattern(256<<10)); err != nil {
		return false, err
	}

	opts := gridftp.ThirdPartyOptions{}
	switch dcscWhat {
	case "credA->dst":
		opts.DCSC = src.User
		opts.DCSCTarget = gridftp.DCSCDest
	case "credB->src":
		opts.DCSC = dst.User
		opts.DCSCTarget = gridftp.DCSCSource
	case "selfsigned-both":
		ss, err := gsi.SelfSignedCredential("/CN=dcsc-random", time.Hour)
		if err != nil {
			return false, err
		}
		opts.DCSC = ss
		opts.DCSCTarget = gridftp.DCSCBoth
	case "selfsigned-dst-only":
		ss, err := gsi.SelfSignedCredential("/CN=dcsc-random", time.Hour)
		if err != nil {
			return false, err
		}
		opts.DCSC = ss
		opts.DCSCTarget = gridftp.DCSCDest
	case "revert":
		// Install a working context, then revert it with DCSC D.
		if err := cDst.SendDCSC(src.User); err != nil {
			return false, err
		}
		if err := cDst.ResetDCSC(); err != nil {
			return false, err
		}
	}
	_, terr := gridftp.ThirdParty(cSrc, "/m.bin", cDst, "/m.bin", opts)
	return terr == nil, terr
}
