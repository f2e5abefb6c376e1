package experiments

import (
	"fmt"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/gcmu"
	"gridftp.dev/instant/internal/netsim"
	"gridftp.dev/instant/internal/pam"
	"gridftp.dev/instant/internal/world"
)

// RunE5Setup reproduces the paper's setup-complexity comparison (§III vs
// §IV): conventional GridFTP deployment against the GCMU install, counting
// steps, manual interventions, out-of-band waits, and time-to-first-
// transfer. The GCMU column is then *validated live*: the four-command
// install is actually executed (programmatically) and a first transfer is
// timed end to end.
func RunE5Setup() (*Table, error) {
	t := &Table{
		ID:      "E5",
		Title:   "Setup complexity: conventional GridFTP vs GCMU",
		Paper:   `§III: "This process is too complex for many users"; §IV.D: "four commands are required"`,
		Columns: []string{"workflow", "steps", "manual", "out-of-band", "est. time-to-first-transfer"},
	}
	workflows := []struct {
		name  string
		steps []gcmu.Step
	}{
		{"conventional server (§III.A 1-2)", gcmu.ConventionalServerSetup()},
		{"conventional per-user (§III.A 3)", gcmu.ConventionalUserSetup()},
		{"conventional total", append(gcmu.ConventionalServerSetup(), gcmu.ConventionalUserSetup()...)},
		{"GCMU server (§IV.D)", gcmu.GCMUServerSetup()},
		{"GCMU client (§IV.E)", gcmu.GCMUClientSetup()},
		{"GCMU total", append(gcmu.GCMUServerSetup(), gcmu.GCMUClientSetup()...)},
	}
	var convTotal, gcmuTotal time.Duration
	for _, w := range workflows {
		s := gcmu.Summarize(w.steps)
		t.AddRow(w.name,
			fmt.Sprintf("%d", s.Steps),
			fmt.Sprintf("%d", s.Manual),
			fmt.Sprintf("%d", s.OutOfBand),
			s.TotalTime.String())
		if w.name == "conventional total" {
			convTotal = s.TotalTime
		}
		if w.name == "GCMU total" {
			gcmuTotal = s.TotalTime
		}
	}
	if gcmuTotal > 0 {
		t.Note("estimated setup-time ratio: %.0fx (conventional %v vs GCMU %v)",
			float64(convTotal)/float64(gcmuTotal), convTotal, gcmuTotal)
	}

	// Live validation: run the actual GCMU install + logon + transfer and
	// time it (the machine part; human latencies above are estimates).
	elapsed, err := measureGCMUFirstTransfer()
	if err != nil {
		return nil, fmt.Errorf("live GCMU validation: %w", err)
	}
	t.Note("live GCMU install -> logon -> first transfer executed in %v (machine time, this run)", elapsed.Round(time.Millisecond))
	t.Note("step latencies are order-of-magnitude estimates; out-of-band steps (CA vetting, admin gridmap updates) dominate the conventional path")
	return t, nil
}

// measureGCMUFirstTransfer measures install -> logon -> transfer wall time.
func measureGCMUFirstTransfer() (time.Duration, error) {
	nw := netsim.NewNetwork()
	start := time.Now()
	ep, err := world.NewEndpoint(gcmu.Options{Name: "siteA", Host: nw.Host("siteA")}, map[string]string{"alice": "pw"})
	if err != nil {
		return 0, err
	}
	defer ep.Close()
	client, err := ep.Connect(nw.Host("laptop"), "alice", pam.PasswordConv("pw"))
	if err != nil {
		return 0, err
	}
	defer client.Close()
	if _, err := client.Put("/first.bin", dsi.NewBufferFile(pattern(64<<10))); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}
