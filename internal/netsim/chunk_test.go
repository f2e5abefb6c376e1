package netsim

import (
	"testing"
	"time"
)

// TestQueuedRecordsHoldLittleSlack writes a half's bound as TLS-record-sized
// writes (16 KiB of payload and 22 bytes of framing) into a pipe nobody
// reads, and sums the capacity of the chunks queued for the reader: it stays
// within a sixteenth of the bytes queued, where one power-of-two class per
// octave held twice them.
func TestQueuedRecordsHoldLittleSlack(t *testing.T) {
	h := newPipeHalf(nil)
	defer h.hardClose()
	const record = 16<<10 + 22
	rec := make([]byte, record)
	bound := h.bound()
	for left := bound; left > 0; left -= min(left, record) {
		if _, err := h.write(rec[:min(left, record)], time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	h.mu.Lock()
	queued, capacity := h.buffered, 0
	for _, c := range h.buf {
		capacity += cap(c.full)
	}
	h.mu.Unlock()
	t.Logf("%d bytes queued in %d bytes of chunks", queued, capacity)
	if queued != bound {
		t.Fatalf("queued %d bytes, want %d", queued, bound)
	}
	if capacity*16 > bound*17 {
		t.Fatalf("%d bytes queued in %d bytes of chunks, more than 17/16 of them", queued, capacity)
	}
}
