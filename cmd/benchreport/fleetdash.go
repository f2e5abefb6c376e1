package main

// The -fleet-dashboard renderer: a one-shot terminal view of a fleet
// federation head — the instance registry with per-instance goodput and
// outlier highlighting, the fleet alert table, and sparklines over the
// fleet.* aggregate series. Point it at any admin plane whose process
// runs with -fleet:
//
//	benchreport -fleet-dashboard http://127.0.0.1:9971

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

type fleetInstance struct {
	Name       string    `json:"name"`
	Stale      bool      `json:"stale"`
	LastSeen   time.Time `json:"last_seen"`
	Restarts   int       `json:"restarts"`
	Pushes     int64     `json:"pushes"`
	GoodputBps float64   `json:"goodput_bps"`
}

type fleetBundleDocument struct {
	Bundles []struct {
		Name             string    `json:"name"`
		CapturedAt       time.Time `json:"captured_at"`
		ExemplarTraceIDs []string  `json:"exemplar_trace_ids"`
		Files            []string  `json:"files"`
	} `json:"bundles"`
	Skipped int `json:"skipped"`
}

// renderFleetDashboard fetches the federation head's registry, alerts,
// timeseries, and bundle manifests from the admin-plane base URL and
// prints them as one terminal page.
func renderFleetDashboard(src string) error {
	base := strings.TrimSuffix(src, "/")
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return fmt.Errorf("-fleet-dashboard wants an admin-plane base URL, got %q", src)
	}

	var instances []fleetInstance
	if err := fetchJSON(base+"/fleet/instances", &instances); err != nil {
		return fmt.Errorf("fleet head not reachable (is the daemon running with -fleet?): %w", err)
	}

	fmt.Printf("fleet dashboard — %s @ %s\n%s\n\n",
		src, time.Now().Local().Format("15:04:05"), strings.Repeat("=", 72))

	renderFleetInstances(instances)

	var alerts alertDocument
	if err := fetchJSON(base+"/fleet/alerts", &alerts); err == nil {
		renderAlertTable(alerts)
	}

	var bundles fleetBundleDocument
	if err := fetchJSON(base+"/fleet/bundles", &bundles); err == nil && len(bundles.Bundles) > 0 {
		renderFleetBundles(bundles)
	}

	// Fleet-merged tenant attribution: per-DN sums across every
	// instance's pushed sketch table. Heads without tenant pushes just
	// return an empty table and the section is omitted.
	var tenants tenantDocument
	if err := fetchJSON(base+"/fleet/tenants", &tenants); err == nil && len(tenants.Tenants) > 0 {
		renderFleetTenants(tenants)
	}

	var ts tsDocument
	if err := fetchJSON(base+"/fleet/timeseries?series=fleet.", &ts); err != nil {
		return err
	}
	renderSparklines(ts.Series)
	return nil
}

// renderFleetInstances prints the registry, goodput outliers marked:
// an up instance running under half the fleet median goodput is the
// straggler the fleet.goodput.outlier_ratio series is tracking.
func renderFleetInstances(instances []fleetInstance) {
	fmt.Printf("instances (%d)\n", len(instances))
	if len(instances) == 0 {
		fmt.Println("  (none registered — nothing pushed yet)")
		fmt.Println()
		return
	}
	median := medianGoodput(instances)
	sort.Slice(instances, func(i, j int) bool { return instances[i].Name < instances[j].Name })
	fmt.Printf("  %-20s %-6s %9s %9s %12s  %s\n", "instance", "state", "pushes", "restarts", "goodput", "last seen")
	for _, in := range instances {
		state, marker := "up", " "
		switch {
		case in.Stale:
			state, marker = "stale", "!"
		case median > 0 && in.GoodputBps < median/2:
			marker = "*" // goodput outlier: under half the fleet median
		}
		fmt.Printf("%s %-20s %-6s %9d %9d %10s/s  %s\n",
			marker, in.Name, state, in.Pushes, in.Restarts,
			fmtBytes(in.GoodputBps), in.LastSeen.Local().Format("15:04:05"))
	}
	fmt.Println()
}

func medianGoodput(instances []fleetInstance) float64 {
	var rates []float64
	for _, in := range instances {
		if !in.Stale {
			rates = append(rates, in.GoodputBps)
		}
	}
	if len(rates) < 3 {
		return 0 // too few live instances for an outlier baseline
	}
	sort.Float64s(rates)
	return rates[len(rates)/2]
}

// renderFleetTenants prints the fleet-merged per-DN table. Unlike the
// single-daemon dashboard there is no instantaneous bytes/s join (the
// head merges cumulative tables, not rate series), so the columns are
// the restart-proof totals plus the live active-transfer gauge.
func renderFleetTenants(td tenantDocument) {
	fmt.Printf("fleet tenants by bytes moved (%d shown)\n", len(td.Tenants))
	fmt.Printf("  %4s %-40s %10s %7s %7s %7s\n", "rank", "dn", "moved", "active", "err%", "share")
	for _, t := range td.Tenants {
		dn := t.DN
		if len(dn) > 40 {
			dn = "…" + dn[len(dn)-39:]
		}
		fmt.Printf("  %4d %-40s %10s %7d %6.1f%% %6.1f%%\n",
			t.Rank, dn, fmtBytes(float64(t.Bytes)), t.Active, t.ErrorRate*100, t.Share*100)
	}
	fmt.Println()
}

func renderFleetBundles(doc fleetBundleDocument) {
	fmt.Printf("diagnostic bundles (%d on disk, %d captures skipped)\n",
		len(doc.Bundles), doc.Skipped)
	for _, b := range doc.Bundles {
		traces := ""
		if len(b.ExemplarTraceIDs) > 0 {
			traces = fmt.Sprintf("  exemplar trace %s", b.ExemplarTraceIDs[0])
		}
		fmt.Printf("  %-52s %s  %d files%s\n",
			b.Name, b.CapturedAt.Local().Format("15:04:05"), len(b.Files)+1, traces)
	}
	fmt.Println()
}
