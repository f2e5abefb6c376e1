package profile

import (
	"bytes"
	"compress/gzip"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
)

// captureHeap grabs a real gzipped allocs profile from the running
// test binary — the parser's ground truth is whatever runtime/pprof
// actually writes.
func captureHeap(t testing.TB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// chewMemory allocates n pages and makes the runtime publish the samples.
// Allocation samples reach a profile at garbage collections: taken before any
// cycle has completed a profile has everything, later it has what the last
// cycle saw. So whether a test found its burst depended on which tests ran
// before it and on where the heap target happened to be — in declaration
// order they passed, shuffled (check.sh) most orders failed. A collection
// after the burst publishes it whatever came before.
//
//go:noinline
func chewMemory(n int) [][]byte {
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, make([]byte, 4096))
	}
	runtime.GC()
	return out
}

func TestParseRealHeapProfile(t *testing.T) {
	// 600 × 4 KiB against the default 512 KiB rate is ≈ 4.7 expected
	// samples: about one run in a hundred sees none in chewMemory. At 4096
	// every page is sampled.
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 4096
	sink := chewMemory(600)
	runtime.KeepAlive(sink)
	data := captureHeap(t)
	p, err := ParsePprof(data)
	if err != nil {
		t.Fatalf("ParsePprof: %v", err)
	}
	idx := p.ValueIndex("alloc_space")
	if idx < 0 {
		t.Fatalf("alloc_space sample type missing; got %+v", p.SampleTypes)
	}
	if p.TotalValue(idx) <= 0 {
		t.Fatalf("alloc_space total = %d, want > 0", p.TotalValue(idx))
	}
	table := FrameTable(p, idx)
	if len(table) == 0 {
		t.Fatal("empty frame table from a live heap profile")
	}
	found := false
	for _, f := range table {
		if strings.Contains(f.Func, "chewMemory") {
			found = true
			if f.Flat <= 0 {
				t.Errorf("chewMemory flat = %d, want > 0", f.Flat)
			}
		}
	}
	if !found {
		t.Errorf("chewMemory not attributed in heap table (top: %+v)", TopN(table, 5))
	}
}

func TestParseRealGoroutineProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 0); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	p, err := ParsePprof(buf.Bytes())
	if err != nil {
		t.Fatalf("ParsePprof: %v", err)
	}
	if len(p.Samples) == 0 {
		t.Fatal("goroutine profile has no samples")
	}
	if got := p.TotalValue(0); got < 1 {
		t.Fatalf("goroutine count = %d, want >= 1", got)
	}
}

func TestParseUncompressedProto(t *testing.T) {
	data := captureHeap(t)
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("gzip: %v", err)
	}
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(zr); err != nil {
		t.Fatalf("inflate: %v", err)
	}
	p, err := ParsePprof(raw.Bytes())
	if err != nil {
		t.Fatalf("ParsePprof(raw proto): %v", err)
	}
	if p.ValueIndex("inuse_space") < 0 {
		t.Fatalf("inuse_space missing from %+v", p.SampleTypes)
	}
}

func TestParseMalformedInputs(t *testing.T) {
	real := captureHeap(t)
	cases := map[string][]byte{
		"empty":             {},
		"gzip magic only":   {0x1f, 0x8b},
		"truncated gzip":    real[:len(real)/2],
		"overlong varint":   {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
		"length past end":   {0x0a, 0x7f, 0x01},
		"field number zero": {0x00, 0x01},
	}
	for name, data := range cases {
		if _, err := ParsePprof(data); err == nil {
			t.Errorf("%s: parse succeeded, want error", name)
		}
	}
	// Unknown fields and empty-but-valid messages must parse.
	if _, err := ParsePprof([]byte{}); err == nil {
		t.Error("empty input parsed; want error")
	}
	if p, err := ParsePprof([]byte{0x78, 0x01}); err != nil || p.TimeNanos != 1 {
		// field 15 varint=1: unknown to us, skipped, empty profile.
		if err != nil {
			t.Errorf("unknown-field input: %v", err)
		}
	}
}

func TestParseZipBombRejected(t *testing.T) {
	var comp bytes.Buffer
	zw := gzip.NewWriter(&comp)
	zero := make([]byte, 1<<20)
	for i := 0; i < 70; i++ { // 70 MiB of zeros, > maxDecompressedProfile
		zw.Write(zero)
	}
	zw.Close()
	if _, err := ParsePprof(comp.Bytes()); err == nil {
		t.Fatal("64MiB+ decompressed profile accepted; want rejection")
	}
}

func FuzzParsePprof(f *testing.F) {
	// Seeds: real captures plus handcrafted edge shapes — malformed
	// varints, truncated gzip, oversized string-table indices.
	var heap bytes.Buffer
	pprof.Lookup("allocs").WriteTo(&heap, 0)
	f.Add(heap.Bytes())
	var goro bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&goro, 0)
	f.Add(goro.Bytes())
	if len(heap.Bytes()) > 64 {
		f.Add(heap.Bytes()[:64]) // truncated gzip
	}
	f.Add([]byte{0x1f, 0x8b})
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80})
	// Sample referencing string index 1000 with a 1-entry table.
	f.Add([]byte{
		0x0a, 0x04, 0x08, 0xe8, 0x07, 0x10, 0x01, // sample_type{type:1000 unit:1}
		0x32, 0x00, // string_table[0] = ""
	})
	// Packed location_ids with a junk tail.
	f.Add([]byte{0x12, 0x05, 0x0a, 0x03, 0x01, 0x02, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParsePprof(data)
		if err != nil {
			return
		}
		// Whatever parses must be safely traversable.
		for _, vt := range p.SampleTypes {
			_ = vt.Type
		}
		for i := range p.SampleTypes {
			_ = p.TotalValue(i)
			_ = FrameTable(p, i)
		}
		for _, s := range p.Samples {
			if len(p.SampleTypes) > 0 && len(s.Values) > len(p.SampleTypes) {
				t.Fatalf("sample with %d values escaped the %d-type header check",
					len(s.Values), len(p.SampleTypes))
			}
		}
	})
}
