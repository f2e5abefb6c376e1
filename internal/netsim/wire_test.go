package netsim

import (
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestWireStatusAgreesWithLinkStats drives several connections across a
// link, spikes the loss rate mid-traffic via SetLink, and checks that the
// per-connection WireStatus counters (what the stream-telemetry plane
// reads) agree with the per-link LinkStats aggregates (what the metrics
// exporter reads): summed retransmits match exactly, and after a cut every
// connection reports itself dropped, matching the link drop count.
func TestWireStatusAgreesWithLinkStats(t *testing.T) {
	nw := NewNetwork()
	params := LinkParams{
		Bandwidth:    64 << 20,
		RTT:          2 * time.Millisecond,
		StreamWindow: 1 << 20,
	}
	nw.SetLink("a", "b", params)

	l, err := nw.Host("b").Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				io.Copy(io.Discard, conn)
			}()
		}
	}()

	const streams = 3
	conns := make([]*Conn, streams)
	for i := range conns {
		c, err := nw.Host("a").Dial("b:9000")
		if err != nil {
			t.Fatal(err)
		}
		conns[i] = c.(*Conn)
	}

	payload := make([]byte, 1<<20)
	writeAll := func() {
		var ww sync.WaitGroup
		for _, c := range conns {
			ww.Add(1)
			go func(c *Conn) {
				defer ww.Done()
				if _, err := c.Write(payload); err != nil {
					t.Errorf("write: %v", err)
				}
			}(c)
		}
		ww.Wait()
	}

	// Phase 1: clean link — no retransmits anywhere.
	writeAll()
	for i, c := range conns {
		rtt, retrans, drops, _, ok := c.WireStatus()
		if !ok {
			t.Fatalf("conn %d: WireStatus not supported", i)
		}
		if rtt != params.RTT {
			t.Errorf("conn %d: rtt %v, want %v", i, rtt, params.RTT)
		}
		if retrans != 0 || drops != 0 {
			t.Errorf("conn %d: retrans=%d drops=%d on a clean link", i, retrans, drops)
		}
	}
	if st := nw.LinkStats("a", "b"); st.Retransmits != 0 {
		t.Errorf("link retransmits %d on a clean link", st.Retransmits)
	}

	// Phase 2: loss spike injected into the live link. Keep the window
	// large so the Mathis cap (not the window) becomes binding but the
	// writes still finish quickly.
	spiked := params
	spiked.Loss = 0.01
	nw.SetLink("a", "b", spiked)
	writeAll()

	var perConn int64
	for i, c := range conns {
		_, retrans, _, cwnd, _ := c.WireStatus()
		if retrans <= 0 {
			t.Errorf("conn %d: no retransmits recorded under 1%% loss", i)
		}
		if cwnd <= 0 {
			t.Errorf("conn %d: cwnd %d, want > 0 on a capped stream", i, cwnd)
		}
		perConn += retrans
	}
	st := nw.LinkStats("a", "b")
	if st.Retransmits != perConn {
		t.Errorf("link retransmits %d != sum of per-conn counters %d", st.Retransmits, perConn)
	}
	// ~1% of the segments of streams x 1 MiB should have been counted;
	// each shaper may hold back up to one fractional segment of credit.
	wantMin := int64(float64(streams*len(payload)/1460)*spiked.Loss) - streams
	if perConn < wantMin {
		t.Errorf("retransmits %d, want >= %d for %d bytes at %.0f%% loss",
			perConn, wantMin, streams*len(payload), spiked.Loss*100)
	}

	// Phase 3: cut the link — every conn reports dropped, and the link
	// counts each of them.
	nw.CutLink("a", "b")
	var perConnDrops int64
	for i, c := range conns {
		_, _, drops, _, _ := c.WireStatus()
		if drops != 1 {
			t.Errorf("conn %d: drops=%d after cut, want 1", i, drops)
		}
		perConnDrops += drops
	}
	if st := nw.LinkStats("a", "b"); st.Drops != perConnDrops {
		t.Errorf("link drops %d != sum of per-conn drops %d", st.Drops, perConnDrops)
	}

	l.Close()
	wg.Wait()
}

// TestSetLinkReshapesLiveConns checks that SetLink on an existing link
// updates connections in flight: a stream that starts on a fast link and
// is then squeezed to a trickle observes the new cap without redialing. It
// times delivery, not the write: a write returns once its bytes are within a
// round trip of being sent, so on the squeezed link (64 KiB/s, 1 s RTT) the
// 64 KiB write returns at once and its bytes take a second to transmit and
// half a second more to arrive.
func TestSetLinkReshapesLiveConns(t *testing.T) {
	nw := NewNetwork()
	fast := LinkParams{RTT: time.Millisecond, StreamWindow: 8 << 20}
	nw.SetLink("a", "b", fast)

	l, err := nw.Host("b").Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		accepted <- conn
	}()

	conn, err := nw.Host("a").Dial("b:9000")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	peer := <-accepted
	defer peer.Close()

	// deliver writes n bytes and returns when the peer has read them all.
	deliver := func(n int) time.Duration {
		start := time.Now()
		if _, err := conn.Write(make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(peer, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// Fast phase: 1 MiB at ~8 GB/s cap is effectively instant.
	if d := deliver(1 << 20); d > 500*time.Millisecond {
		t.Fatalf("fast-phase delivery took %v", d)
	}
	nw.SetLink("a", "b", LinkParams{RTT: time.Second, StreamWindow: 64 << 10})
	if d := deliver(64 << 10); d < time.Second {
		t.Fatalf("squeezed delivery finished in %v, want at least a second at 64 KiB/s; SetLink did not reshape the live conn", d)
	}
}
