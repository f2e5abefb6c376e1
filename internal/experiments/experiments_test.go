package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/netsim"
)

// checkTable validates a table has rows and no MISMATCH/FAIL verdicts.
func checkTable(t *testing.T, table *Table, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) == 0 {
		t.Fatalf("%s: no rows", table.ID)
	}
	formatted := table.Format()
	if strings.Contains(formatted, "MISMATCH") || strings.Contains(formatted, "  FAIL") {
		t.Fatalf("%s reported a mismatch:\n%s", table.ID, formatted)
	}
	t.Logf("\n%s", formatted)
}

func TestE1UsageSmall(t *testing.T) {
	table, err := RunE1Usage(E1Config{Servers: 50, Days: 3, Seed: 7})
	checkTable(t, table, err)
	if len(table.Rows) != 3 {
		t.Fatalf("want 3 day rows, got %d", len(table.Rows))
	}
}

func TestE2ParallelStreamsSmall(t *testing.T) {
	table, err := RunE2ParallelStreams(E2Config{
		FileBytes: 256 << 10,
		Link: netsim.LinkParams{
			Bandwidth: 40e6, RTT: 20 * time.Millisecond, StreamWindow: 64 * 1024,
		},
		Parallelism: []int{1, 4},
		Loss:        []float64{0},
	})
	checkTable(t, table, err)
	// Shape check: gridftp P=4 must beat scp. A 256 KiB file is one 64 KiB
	// share per stream (gridftp.jobSize) and one round trip cheaper to start
	// than it was (PORT and RETR in one flight): ten runs read 1.26–1.53x,
	// median 1.40 (1.2–1.4x before). The margin is four windows in parallel
	// against five TLS handshakes; 1.1 leaves the handshakes' CPU room on a
	// busy machine.
	var p4 float64
	for _, row := range table.Rows {
		if row[1] == "gridftp" && row[2] == "4" {
			fmt.Sscanf(row[4], "%fx", &p4)
		}
	}
	if p4 < 1.1 {
		t.Fatalf("P=4 speedup vs scp is %.1fx, want at least 1.1x; rows: %v", p4, table.Rows)
	}
}

func TestE3DcauOverheadSmall(t *testing.T) {
	table, err := RunE3DcauOverhead(E3Config{FileBytes: 8 << 20})
	checkTable(t, table, err)
	if len(table.Rows) != 3 {
		t.Fatalf("want 3 protection rows: %v", table.Rows)
	}
}

func TestE4DcscMatrix(t *testing.T) {
	table, err := RunE4DcscMatrix()
	checkTable(t, table, err)
	if len(table.Rows) != 7 {
		t.Fatalf("want 7 scenario rows, got %d", len(table.Rows))
	}
}

func TestE5Setup(t *testing.T) {
	table, err := RunE5Setup()
	checkTable(t, table, err)
}

func TestE6CheckpointSmall(t *testing.T) {
	table, err := RunE6Checkpoint(E6Config{
		FileBytes:     2 << 20,
		FaultFraction: 0.5,
		Link:          netsim.LinkParams{Bandwidth: 20e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22},
	})
	checkTable(t, table, err)
	// Shape: checkpointed overhead must be lower than full retransfer.
	if len(table.Rows) != 2 {
		t.Fatalf("rows: %v", table.Rows)
	}
}

func TestE7SmallFilesSmall(t *testing.T) {
	table, err := RunE7SmallFiles(E7Config{Files: 10, FileBytes: 16 << 10, RTT: 5 * time.Millisecond, Concurrency: 2})
	checkTable(t, table, err)
}

func TestE8StripingSmall(t *testing.T) {
	table, err := RunE8Striping(E8Config{
		FileBytes: 2 << 20,
		Stripes:   []int{1, 2},
		PerLink:   netsim.LinkParams{Bandwidth: 8e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22},
	})
	checkTable(t, table, err)
}

func TestE9ThirdPartySmall(t *testing.T) {
	table, err := RunE9ThirdParty(E9Config{
		FileBytes:  1 << 20,
		ServerLink: netsim.LinkParams{Bandwidth: 40e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22},
		ClientLink: netsim.LinkParams{Bandwidth: 2e6, RTT: 10 * time.Millisecond, StreamWindow: 1 << 22},
	})
	checkTable(t, table, err)
}

func TestE10Workflow(t *testing.T) {
	table, err := RunE10Workflow()
	checkTable(t, table, err)
}

func TestE11OAuthAudit(t *testing.T) {
	table, err := RunE11OAuthAudit()
	checkTable(t, table, err)
}

func TestE12ControlSecurity(t *testing.T) {
	table, err := RunE12ControlSecurity()
	checkTable(t, table, err)
	if len(table.Rows) != 8 {
		t.Fatalf("want 8 invariant rows, got %d", len(table.Rows))
	}
}

func TestE14SchedulerSmall(t *testing.T) {
	table, err := RunE14Scheduler(E14Config{
		Files:     24,
		FileBytes: 64 << 10,
		Link:      netsim.LinkParams{Bandwidth: 40e6, RTT: 10 * time.Millisecond, StreamWindow: 1 << 20},
	})
	checkTable(t, table, err)
	if len(table.Rows) != 4 {
		t.Fatalf("want 4 scheduling rows, got %d", len(table.Rows))
	}
	if row := table.Rows[0]; row[0] != "one pair (K=1)" || row[1] != "1" {
		t.Fatalf("first row should be K=1 with one worker: %v", row)
	}
}

func TestAblationBlockSizeSmall(t *testing.T) {
	table, err := RunAblationBlockSize(AblationBlockSizeConfig{
		FileBytes:  2 << 20,
		BlockSizes: []int{16 << 10, 256 << 10},
		Link:       netsim.LinkParams{Bandwidth: 60e6, RTT: 2 * time.Millisecond, StreamWindow: 1 << 22},
	})
	checkTable(t, table, err)
}

func TestAblationCacheSmall(t *testing.T) {
	table, err := RunAblationChannelCache(AblationCacheConfig{Files: 6, FileBytes: 32 << 10, RTT: 10 * time.Millisecond})
	checkTable(t, table, err)
}

func TestAblationAutotuneSmall(t *testing.T) {
	table, err := RunAblationAutotune(AblationAutotuneConfig{
		FileBytes: 4 << 20,
		Link:      netsim.LinkParams{Bandwidth: 40e6, RTT: 10 * time.Millisecond, StreamWindow: 128 << 10},
	})
	checkTable(t, table, err)
}

func TestTableFormat(t *testing.T) {
	table := &Table{ID: "X", Title: "T", Paper: "P", Columns: []string{"a", "bb"}}
	table.AddRow("1", "2")
	table.Note("n=%d", 1)
	out := table.Format()
	for _, want := range []string{"== X: T", "a", "bb", "note: n=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestAblationTransportSmall(t *testing.T) {
	table, err := RunAblationTransport(AblationTransportConfig{
		FileBytes: 1 << 20,
		Link: netsim.LinkParams{
			Bandwidth: 30e6, RTT: 20 * time.Millisecond, Loss: 0.001, StreamWindow: 64 << 10,
		},
	})
	checkTable(t, table, err)
	if len(table.Rows) != 3 {
		t.Fatalf("rows %v", table.Rows)
	}
}
