package netsim

import (
	"io"
	"sort"
	"testing"
	"time"
)

// TestPacedWritesLeaveTheLinkIdle measures what a writer that sends back to
// back leaves unused of a shaped link. The link books each write from
// max(free, now), so any time the writer spends parked past the moment the
// link ran out of bytes is time in which the link carries nothing. writev
// lets a writer go once no more than one round trip of its bytes is booked
// and unsent, as a socket write returns once its bytes fit the send buffer,
// so a back-to-back writer is back with the next write while the link is
// still busy with the last: on the hosted benchmark's hop (40 MB/s, 10 ms)
// with writes the size of its files (16–246 KiB) the link must be idle less
// than 1 % of the time. A run can also lose the CPU for longer than a round
// trip to whatever else the machine runs (under -race beside every other
// package, one run read 1.3 %, all of it one stall); that idle is the
// machine's, not the model's, so the best of three runs is held to the bound.
func TestPacedWritesLeaveTheLinkIdle(t *testing.T) {
	best := 1.0
	for run := 0; run < 3 && best >= 0.01; run++ {
		best = min(best, backToBackIdle(t))
	}
	if best >= 0.01 {
		t.Errorf("link idle %.1f%% of a back-to-back writer's time in the best of three runs, want under 1%%: the writer is parked past the end of its bytes", 100*best)
	}
}

// backToBackIdle writes 192 blocks of 16–246 KiB back to back on a fresh
// conn across the hosted benchmark's hop, logs what the link carried nothing
// for, and returns that as a fraction of the elapsed time.
func backToBackIdle(t *testing.T) float64 {
	link := LinkParams{Bandwidth: 40e6, RTT: 10 * time.Millisecond, StreamWindow: 1 << 20}
	nw := NewNetwork()
	nw.SetLink("a", "b", link)
	l, err := nw.Listen("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c)
	}()
	c, err := nw.Dial("a", "b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const rounds, sizes = 8, 24
	buf := make([]byte, 256<<10)
	var idle []time.Duration
	var free time.Time // when the link has sent everything written so far
	var busy time.Duration
	begin := time.Now()
	for i := 0; i < rounds*sizes; i++ {
		n := (16 + 10*(i%sizes)) << 10 // 16, 26, … 246 KiB
		// The link books this write from max(free, now): whatever now is past
		// free by, it carried nothing for.
		if now := time.Now(); now.After(free) {
			if i > 0 {
				idle = append(idle, now.Sub(free))
			}
			free = now
		} else {
			idle = append(idle, 0)
		}
		onLink := time.Duration(float64(n) / link.Bandwidth * float64(time.Second))
		free = free.Add(onLink)
		busy += onLink
		if _, err := c.Write(buf[:n]); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(begin)

	sort.Slice(idle, func(i, j int) bool { return idle[i] < idle[j] })
	var total time.Duration
	for _, d := range idle {
		total += d
	}
	p50, p90 := idle[len(idle)/2], idle[len(idle)*9/10]
	frac := total.Seconds() / elapsed.Seconds()
	t.Logf("%d back-to-back paced writes of 16–246 KiB from one goroutine: link idle per write p50 %v, p90 %v, mean %v; %v elapsed, %v of bytes on the link, %v idle (%.1f%%)",
		len(idle)+1, p50.Round(10*time.Microsecond), p90.Round(10*time.Microsecond), (total / time.Duration(len(idle))).Round(10*time.Microsecond),
		elapsed.Round(time.Millisecond), busy.Round(time.Millisecond), total.Round(time.Millisecond), 100*frac)
	return frac
}

// TestSmallWriteReturnsAtOnce prices a small write where every caller can
// see it, on the reference WAN (40 MB/s, 20 ms, 64 KiB window). A write on an
// idle conn has nothing booked ahead of it, so it returns without parking:
// 150 bytes, a reply or a command, must return in under 0.1 ms, where a write
// that waited out its own transmission cost a timer's wake-up (about 1 ms).
// A writer that outruns the window still blocks, as a writer on a full send
// buffer does: one write of four windows returns only once no more than one
// window of it is left to send, three windows' time (60 ms) after it began.
func TestSmallWriteReturnsAtOnce(t *testing.T) {
	link := LinkParams{Bandwidth: 40e6, RTT: 20 * time.Millisecond, StreamWindow: 64 << 10}
	nw := NewNetwork()
	nw.SetLink("a", "b", link)
	l, err := nw.Listen("b", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c)
	}()
	c, err := nw.Dial("a", "b:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// 150 bytes are 47 µs of a 64 KiB/20 ms stream: a millisecond apart, each
	// write finds the conn idle.
	const writes, small = 50, 150
	buf := make([]byte, 4*link.StreamWindow)
	var each []time.Duration
	for i := 0; i < writes; i++ {
		time.Sleep(time.Millisecond)
		start := time.Now()
		if _, err := c.Write(buf[:small]); err != nil {
			t.Fatal(err)
		}
		each = append(each, time.Since(start))
	}
	sort.Slice(each, func(i, j int) bool { return each[i] < each[j] })
	p50, p90 := each[writes/2], each[writes*9/10]

	time.Sleep(link.RTT)
	start := time.Now()
	if _, err := c.Write(buf); err != nil {
		t.Fatal(err)
	}
	bulk := time.Since(start)
	t.Logf("a %d-byte write on an idle conn: p50 %v, p90 %v; one %d KiB write: %v",
		small, p50.Round(time.Microsecond), p90.Round(time.Microsecond), len(buf)>>10, bulk.Round(time.Millisecond))
	if p50 >= 100*time.Microsecond {
		t.Errorf("a %d-byte write on an idle conn took %v (p50), want under 0.1 ms", small, p50)
	}
	if bulk < 55*time.Millisecond {
		t.Errorf("a %d KiB write returned after %v, want at least 60 ms: the writer must block while more than one window is unsent", len(buf)>>10, bulk)
	}
}
