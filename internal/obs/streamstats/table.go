package streamstats

import (
	"fmt"
	"strings"
)

// FormatTable renders a health snapshot as the aligned text table that
// /debug/streams?format=text serves (and `benchreport -dashboard` shows):
// one header row per transfer, one row per stream.
func FormatTable(transfers []TransferHealth) string {
	if len(transfers) == 0 {
		return "(no transfers tracked)\n"
	}
	var b strings.Builder
	for _, th := range transfers {
		state := "active"
		switch {
		case th.Aborted:
			state = "stall-aborted"
		case th.Done && th.Error != "":
			state = "failed"
		case th.Done:
			state = "done"
		}
		fmt.Fprintf(&b, "%s (%s, %s", th.Label, th.Verb, state)
		if th.Imbalance > 1 {
			fmt.Fprintf(&b, ", imbalance %.1fx", th.Imbalance)
		}
		b.WriteString(")\n")
		if th.Error != "" {
			fmt.Fprintf(&b, "  error: %s\n", th.Error)
		}
		fmt.Fprintf(&b, "  %3s %12s %12s %9s %8s %6s %10s %s\n",
			"str", "bytes", "rate", "rtt", "retrans", "cwnd", "blocked", "state")
		for _, sh := range th.Streams {
			state := "ok"
			if sh.Stalled {
				state = "STALLED"
			}
			fmt.Fprintf(&b, "  %3d %12d %10s/s %7.1fms %8d %6d %8.0fms %s\n",
				sh.Index, sh.Bytes, fmtRate(sh.Throughput), sh.RTTMillis,
				sh.Retransmits, sh.CwndSegments, sh.BlockedMs, state)
		}
	}
	return b.String()
}

func fmtRate(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2f GB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2f MB", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1f KB", v/1e3)
	}
	return fmt.Sprintf("%.0f B", v)
}
