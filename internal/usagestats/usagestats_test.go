package usagestats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func day(d int) time.Time {
	return time.Date(2012, 2, d, 12, 0, 0, 0, time.UTC)
}

func TestCollectorAggregatesByDay(t *testing.T) {
	c := NewCollector()
	c.Report(TransferRecord{Endpoint: "a", Op: "RETR", Bytes: 100, When: day(1)})
	c.Report(TransferRecord{Endpoint: "b", Op: "STOR", Bytes: 200, When: day(1)})
	c.Report(TransferRecord{Endpoint: "a", Op: "RETR", Bytes: 50, When: day(2)})

	days := c.Days()
	if len(days) != 2 {
		t.Fatalf("days %v", days)
	}
	if days[0].Day != "2012-02-01" || days[0].Transfers != 2 || days[0].Bytes != 300 {
		t.Fatalf("day0 %+v", days[0])
	}
	if len(days[0].Endpoints) != 2 || len(days[1].Endpoints) != 1 {
		t.Fatalf("endpoint sets %+v", days)
	}
	tr, by := c.Totals()
	if tr != 3 || by != 350 {
		t.Fatalf("totals %d %d", tr, by)
	}
	if eps := c.TopEndpoints(10); len(eps) != 2 {
		t.Fatalf("endpoints %v", eps)
	}
}

func TestTopEndpoints(t *testing.T) {
	c := NewCollector()
	for i := 0; i < 5; i++ {
		c.Report(TransferRecord{Endpoint: "busy", When: day(1)})
	}
	c.Report(TransferRecord{Endpoint: "idle", When: day(1)})
	top := c.TopEndpoints(1)
	if len(top) != 1 || top[0] != "busy" {
		t.Fatalf("top %v", top)
	}
	if got := c.TopEndpoints(10); len(got) != 2 {
		t.Fatalf("top overflow %v", got)
	}
}

func TestFormatTable(t *testing.T) {
	c := NewCollector()
	c.Report(TransferRecord{Endpoint: "a", Bytes: 42, When: day(3)})
	table := c.FormatTable()
	if !strings.Contains(table, "2012-02-03") || !strings.Contains(table, "42") {
		t.Fatalf("table:\n%s", table)
	}
}

func TestCollectorConcurrentReports(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Report(TransferRecord{Endpoint: "e", Bytes: 1, When: day(1 + w%3)})
			}
		}(w)
	}
	wg.Wait()
	tr, by := c.Totals()
	if tr != 4000 || by != 4000 {
		t.Fatalf("totals %d %d", tr, by)
	}
}
