package gridftp

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
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

// restartLine is one REST line of n one-byte ranges, every other byte of
// [0, 2n), listed in ascending or descending order: 80,000 of them are just
// under ftp's 1 MiB line cap.
func restartLine(n int, descending bool) string {
	parts := make([]string, n)
	for k := range parts {
		i := k
		if descending {
			i = n - 1 - k
		}
		parts[k] = fmt.Sprintf("%d-%d", 2*i, 2*i+1)
	}
	return strings.Join(parts, ",")
}

// TestLongRestartLineIsCheap: RETR turns a client's REST ranges into the
// blocks to send (FromRanges(…).Missing(size)). Each Add used to copy the set,
// so the longest line a client may send took 14 s of CPU in either order.
func TestLongRestartLineIsCheap(t *testing.T) {
	const n = 80000
	for _, descending := range []bool{false, true} {
		rs, err := ParseRanges(restartLine(n, descending))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		missing := FromRanges(rs).Missing(2 * n)
		if elapsed := time.Since(start); elapsed > time.Second {
			t.Errorf("descending %v: %d ranges took %v to build and complement, want under 1 s", descending, n, elapsed)
		}
		if len(missing) != n || missing[0] != (Range{1, 2}) || missing[n-1] != (Range{2*n - 1, 2 * n}) {
			t.Fatalf("descending %v: %d missing ranges, first %v and last %v; want the %d odd bytes", descending, len(missing), missing[0], missing[len(missing)-1], n)
		}
	}
}

// FuzzRestartRanges feeds arbitrary REST text to ParseRanges. Whatever it
// accepts builds a set that is sorted, disjoint and non-adjacent, whose
// marker parses back to the same set, and which with Missing(size) tiles
// [0, size) exactly.
func FuzzRestartRanges(f *testing.F) {
	f.Add(restartLine(8, false), uint64(16))
	f.Add(restartLine(8, true), uint64(16))
	f.Add("0-10,5-20,20-30,40-40", uint64(35))
	f.Add(" 100-200 , 0-100", uint64(1000))
	f.Add("0-9223372036854775807", uint64(1<<63-1))
	f.Add("", uint64(5))
	f.Add("1-2,bad", uint64(3))
	f.Fuzz(func(t *testing.T, text string, size uint64) {
		rs, err := ParseRanges(text)
		if err != nil {
			return
		}
		set := FromRanges(rs)
		got := set.Ranges()
		for i, r := range got {
			if r.Start >= r.End || i > 0 && got[i-1].End >= r.Start {
				t.Fatalf("FromRanges(%v) = %v: not sorted, disjoint, non-empty and non-adjacent", rs, got)
			}
		}
		back, err := ParseRanges(set.Marker())
		if err != nil || !slices.Equal(FromRanges(back).Ranges(), got) {
			t.Fatalf("marker %q of %v parses back to %v, %v", set.Marker(), got, back, err)
		}
		n := int64(size >> 1)
		pieces := set.Missing(n)
		for _, r := range got {
			if r.Start < n {
				pieces = append(pieces, Range{r.Start, min(r.End, n)})
			}
		}
		slices.SortFunc(pieces, func(a, b Range) int { return cmp.Compare(a.Start, b.Start) })
		var pos int64
		for _, r := range pieces {
			if r.Start != pos || r.End <= r.Start {
				t.Fatalf("set %v and Missing(%d) = %v do not tile [0, %d): %v", got, n, set.Missing(n), n, pieces)
			}
			pos = r.End
		}
		if pos != n {
			t.Fatalf("set %v and Missing(%d) = %v cover [0, %d), not [0, %d)", got, n, set.Missing(n), pos, n)
		}
	})
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
