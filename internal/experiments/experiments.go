// Package experiments implements the reproduction harness: one runnable
// experiment per figure and quantitative claim in the paper (see
// DESIGN.md's per-experiment index, E1-E14, plus ablations). Each
// experiment takes its scenario from internal/world — a conventional site,
// a GCMU endpoint or the hosted triangle on the netsim substrate — runs the
// real protocol stacks, and returns a Table whose rows benchreport prints
// and EXPERIMENTS.md records.
//
// Bandwidths are scaled down (a simulated "10 Gb/s WAN" runs at tens of
// MB/s wall-clock) so the full suite completes in minutes; the quantities
// the paper's claims rest on — ratios, crossovers, who wins — are
// preserved because every competing configuration is scaled identically.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"gridftp.dev/instant/internal/gridftp"
)

// Table is one experiment's result, formatted like the row/series the
// paper (or its claims) would report.
type Table struct {
	ID      string
	Title   string
	Paper   string // the paper anchor and claim being reproduced
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "   paper: %s\n", t.Paper)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

// mbps formats a bytes/sec rate as MB/s.
func mbps(bytesPerSec float64) string {
	return fmt.Sprintf("%.2f MB/s", bytesPerSec/1e6)
}

// rate computes bytes/sec.
func rate(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds()
}

// pattern generates deterministic position-dependent data.
func pattern(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte((i*7 + i/251) % 256)
	}
	return data
}

// siteConfig is the server config of every conventional site an experiment
// starts (world.NewSite): markers every 50 ms.
var siteConfig = gridftp.ServerConfig{MarkerInterval: 50 * time.Millisecond}

// Experiment is one table with its default parameters, under the id
// benchreport -exp takes.
type Experiment struct {
	ID  string
	Run func() (*Table, error)
}

// All is every experiment, in the paper's order (DESIGN.md's index).
var All = []Experiment{
	{"e1", func() (*Table, error) { return RunE1Usage(DefaultE1()) }},
	{"e2", func() (*Table, error) { return RunE2ParallelStreams(DefaultE2()) }},
	{"e3", func() (*Table, error) { return RunE3DcauOverhead(DefaultE3()) }},
	{"e4", RunE4DcscMatrix},
	{"e5", RunE5Setup},
	{"e6", func() (*Table, error) { return RunE6Checkpoint(DefaultE6()) }},
	{"e7", func() (*Table, error) { return RunE7SmallFiles(DefaultE7()) }},
	{"e8", func() (*Table, error) { return RunE8Striping(DefaultE8()) }},
	{"e9", func() (*Table, error) { return RunE9ThirdParty(DefaultE9()) }},
	{"e10", RunE10Workflow},
	{"e11", RunE11OAuthAudit},
	{"e12", RunE12ControlSecurity},
	{"e14", func() (*Table, error) { return RunE14Scheduler(DefaultE14()) }},
	{"blocksize", func() (*Table, error) { return RunAblationBlockSize(DefaultAblationBlockSize()) }},
	{"cache", func() (*Table, error) { return RunAblationChannelCache(DefaultAblationCache()) }},
	{"autotune", func() (*Table, error) { return RunAblationAutotune(DefaultAblationAutotune()) }},
	{"transport", func() (*Table, error) { return RunAblationTransport(DefaultAblationTransport()) }},
}
