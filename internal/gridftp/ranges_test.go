package gridftp

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestRangeSetAddMerge(t *testing.T) {
	s := NewRangeSet()
	s.Add(0, 10)
	s.Add(20, 30)
	s.Add(10, 20) // bridges the gap
	rs := s.Ranges()
	if len(rs) != 1 || rs[0] != (Range{0, 30}) {
		t.Fatalf("ranges %v", rs)
	}
	if s.Covered() != 30 {
		t.Fatalf("covered %d", s.Covered())
	}
}

func TestRangeSetOverlaps(t *testing.T) {
	s := NewRangeSet()
	s.Add(5, 15)
	s.Add(0, 10) // overlap left
	s.Add(12, 20)
	rs := s.Ranges()
	if len(rs) != 1 || rs[0] != (Range{0, 20}) {
		t.Fatalf("ranges %v", rs)
	}
	s.Add(100, 100) // empty range ignored
	if len(s.Ranges()) != 1 {
		t.Fatal("empty range added")
	}
}

func TestRangeSetMissing(t *testing.T) {
	s := NewRangeSet()
	s.Add(10, 20)
	s.Add(40, 50)
	missing := s.Missing(60)
	want := []Range{{0, 10}, {20, 40}, {50, 60}}
	if len(missing) != len(want) {
		t.Fatalf("missing %v", missing)
	}
	for i := range want {
		if missing[i] != want[i] {
			t.Fatalf("missing %v want %v", missing, want)
		}
	}
	if len(NewRangeSet().Missing(0)) != 0 {
		t.Fatal("empty set should miss nothing of size 0")
	}
	full := NewRangeSet()
	full.Add(0, 60)
	if len(full.Missing(60)) != 0 {
		t.Fatal("full set should miss nothing")
	}
}

func TestRangeSetContains(t *testing.T) {
	s := NewRangeSet()
	s.Add(10, 20)
	if !s.Contains(10, 20) || !s.Contains(12, 15) || !s.Contains(5, 5) {
		t.Fatal("contains false negative")
	}
	if s.Contains(5, 15) || s.Contains(15, 25) {
		t.Fatal("contains false positive")
	}
}

func TestMarkerRoundTrip(t *testing.T) {
	s := NewRangeSet()
	s.Add(0, 100)
	s.Add(200, 300)
	m := s.Marker()
	if m != "0-100,200-300" {
		t.Fatalf("marker %q", m)
	}
	rs, err := ParseRanges(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[1] != (Range{200, 300}) {
		t.Fatalf("parsed %v", rs)
	}
	if rs2, err := ParseRanges(""); err != nil || rs2 != nil {
		t.Fatal("empty marker should parse to nil")
	}
	for _, bad := range []string{"x", "5", "10-5", "-1-3", "1-2,bad"} {
		if _, err := ParseRanges(bad); err == nil {
			t.Errorf("ParseRanges(%q) should fail", bad)
		}
	}
}

func TestRangeSetPropertyEquivalentToBitmap(t *testing.T) {
	// Against a reference bitmap implementation, under random adds.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const size = 500
		s := NewRangeSet()
		ref := make([]bool, size)
		for i := 0; i < 40; i++ {
			a := rng.Intn(size)
			b := a + rng.Intn(size-a)
			s.Add(int64(a), int64(b))
			for j := a; j < b; j++ {
				ref[j] = true
			}
		}
		// Covered must match.
		var covered int64
		for _, v := range ref {
			if v {
				covered++
			}
		}
		if s.Covered() != covered {
			return false
		}
		// Ranges must be sorted, disjoint, non-adjacent... adjacency is
		// merged by construction; verify round-trip through marker.
		rs, err := ParseRanges(s.Marker())
		if err != nil && covered > 0 {
			return false
		}
		rebuilt := FromRanges(rs)
		if rebuilt.Covered() != covered {
			return false
		}
		// Missing ∪ present must tile [0, size).
		var total int64
		for _, r := range s.Missing(size) {
			total += r.Len()
		}
		return total+covered == size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeSetConcurrentAdds(t *testing.T) {
	s := NewRangeSet()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < 1000; i += 8 {
				s.Add(int64(i*10), int64(i*10+10))
			}
		}(w)
	}
	wg.Wait()
	if s.Covered() != 10000 {
		t.Fatalf("covered %d want 10000", s.Covered())
	}
	if rs := s.Ranges(); len(rs) != 1 {
		t.Fatalf("ranges %v", rs)
	}
}

func TestBlockRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := &Block{Desc: DescRestartable, Count: 5, Offset: 1 << 40, Data: []byte("hello")}
	if err := WriteBlock(&buf, in); err != nil {
		t.Fatal(err)
	}
	eod := &Block{Desc: DescEOD}
	WriteBlock(&buf, eod)
	eof := &Block{Desc: DescEOF, Offset: 4}
	WriteBlock(&buf, eof)

	out, scratch, err := ReadBlock(&buf, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Offset != 1<<40 || string(out.Data) != "hello" || out.EOD() || out.EOF() {
		t.Fatalf("block %+v", out)
	}
	out2, scratch, err := ReadBlock(&buf, scratch, 0)
	if err != nil || !out2.EOD() {
		t.Fatalf("eod %+v err %v", out2, err)
	}
	out3, _, err := ReadBlock(&buf, scratch, 0)
	if err != nil || !out3.EOF() || out3.Offset != 4 {
		t.Fatalf("eof %+v err %v", out3, err)
	}
}

func TestReadBlockRejectsHuge(t *testing.T) {
	var buf bytes.Buffer
	WriteBlock(&buf, &Block{Desc: 0, Count: 1 << 31, Offset: 0})
	if _, _, err := ReadBlock(&buf, nil, 0); err == nil {
		t.Fatal("unreasonable block length accepted")
	}
}

func TestBlockPropertyRoundTrip(t *testing.T) {
	f := func(desc byte, offset uint64, payload []byte) bool {
		var buf bytes.Buffer
		in := &Block{Desc: desc, Count: uint64(len(payload)), Offset: offset, Data: payload}
		if err := WriteBlock(&buf, in); err != nil {
			return false
		}
		out, _, err := ReadBlock(&buf, nil, 0)
		if err != nil {
			return false
		}
		return out.Desc == desc && out.Offset == offset && bytes.Equal(out.Data, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
