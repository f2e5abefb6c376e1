package netsim

import (
	"testing"
	"time"
)

// TestLinkStatsAndMetrics checks the per-link instrumentation: bytes
// transferred, connection counts and cut-link drops.
func TestLinkStatsAndMetrics(t *testing.T) {
	nw := NewNetwork()
	nw.SetLink("a", "b", LinkParams{RTT: time.Millisecond})

	l, err := nw.Host("b").Listen(9000)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 1024)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()

	conn, err := nw.Host("a").Dial("b:9000")
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64<<10)
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	<-done

	st := nw.LinkStats("a", "b")
	if st.Bytes < int64(len(payload)) {
		t.Errorf("link bytes %d, want >= %d", st.Bytes, len(payload))
	}
	if st.Conns < 1 {
		t.Errorf("link conns %d, want >= 1", st.Conns)
	}
	if st.MaxQueue <= 0 {
		t.Errorf("link max queue %d, want > 0", st.MaxQueue)
	}

	// A cut link counts refused dials as drops.
	nw.CutLink("a", "b")
	if _, err := nw.Host("a").Dial("b:9000"); err == nil {
		t.Fatal("dial across a cut link should fail")
	}
	if st = nw.LinkStats("a", "b"); st.Drops < 1 {
		t.Errorf("link drops %d, want >= 1", st.Drops)
	}
}
