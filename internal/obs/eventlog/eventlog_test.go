package eventlog

import (
	"fmt"
	"sync"
	"testing"
)

func TestRingBoundsAndOrder(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Append(TransferStart, "i", i)
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest-first, the last 4 of 10, with monotone Seq.
	for i, ev := range evs {
		if want := fmt.Sprint(6 + i); ev.Fields["i"] != want {
			t.Errorf("event %d: field i = %q, want %q", i, ev.Fields["i"], want)
		}
		if ev.Seq != int64(7+i) {
			t.Errorf("event %d: seq = %d, want %d", i, ev.Seq, 7+i)
		}
	}
	if last := evs[len(evs)-1].Seq; last != 10 {
		t.Errorf("newest seq = %d, want 10 (overflow must not reset numbering)", last)
	}
}

// TestConcurrentAppend is the -race proof: many writers and concurrent
// snapshot readers, then exact counts.
func TestConcurrentAppend(t *testing.T) {
	const (
		workers = 8
		rounds  = 500
	)
	l := New(workers * rounds)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l.Append(SessionOpen, "worker", w, "i", i)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Events()
			}
		}()
	}
	wg.Wait()
	evs := l.Events()
	if len(evs) != workers*rounds {
		t.Fatalf("%d events retained, want %d", len(evs), workers*rounds)
	}
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d: every append gets the next number, in ring order", i, ev.Seq)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var l *Log
	l.Append(SessionOpen, "k", "v")
	if l.Events() != nil {
		t.Error("nil log should be empty")
	}
}
