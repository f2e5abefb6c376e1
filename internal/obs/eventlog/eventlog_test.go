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
	if got := l.Last(2); len(got) != 2 || got[1].Seq != 10 {
		t.Errorf("Last(2) = %+v, want the two newest", got)
	}
}

func TestTapDeliversAndRemoves(t *testing.T) {
	l := New(8)
	var got []Event
	remove := l.Tap(func(ev Event) { got = append(got, ev) })
	l.Append(AuthSuccess, "dn", "/O=Grid/CN=alice")
	remove()
	l.Append(AuthFailure, "dn", "/O=Grid/CN=mallory")
	if len(got) != 1 {
		t.Fatalf("tap saw %d events, want 1", len(got))
	}
	if got[0].Type != AuthSuccess || got[0].Fields["dn"] != "/O=Grid/CN=alice" {
		t.Errorf("tap event = %+v", got[0])
	}
	if n := len(l.Events()); n != 2 {
		t.Errorf("%d events retained, want 2", n)
	}
}

// TestConcurrentAppend is the -race proof: many writers, concurrent
// snapshot readers and a tap, then exact counts.
func TestConcurrentAppend(t *testing.T) {
	const (
		workers = 8
		rounds  = 500
	)
	l := New(workers * rounds)
	var tapped sync.Map
	var tapCount sync.WaitGroup
	tapCount.Add(workers * rounds)
	l.Tap(func(ev Event) {
		tapped.Store(ev.Seq, true)
		tapCount.Done()
	})
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
				l.Last(10)
			}
		}()
	}
	wg.Wait()
	tapCount.Wait()
	if n := len(l.Events()); n != workers*rounds {
		t.Fatalf("%d events retained, want %d", n, workers*rounds)
	}
	for seq := int64(1); seq <= workers*rounds; seq++ {
		if _, ok := tapped.Load(seq); !ok {
			t.Fatalf("tap missed seq %d", seq)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var l *Log
	l.Append(SessionOpen, "k", "v")
	if l.Events() != nil {
		t.Error("nil log should be empty")
	}
	l.Tap(func(Event) {})()
	if got := l.Last(3); got != nil {
		t.Errorf("nil log Last = %v", got)
	}
}
