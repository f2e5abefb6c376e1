package gridftp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Range is a half-open byte range [Start, End).
type Range struct {
	Start, End int64
}

// Len returns the range length.
func (r Range) Len() int64 { return r.End - r.Start }

// RangeSet is a set of disjoint, sorted byte ranges. It backs GridFTP
// restart markers: receivers track which regions have arrived, emit them
// as "111 Range Marker" replies, and senders resume by transferring the
// complement. It is safe for concurrent use (parallel streams add ranges
// concurrently).
type RangeSet struct {
	mu     sync.Mutex
	ranges []Range
}

// NewRangeSet returns an empty set.
func NewRangeSet() *RangeSet { return &RangeSet{} }

// Add merges [start, end) into the set.
func (s *RangeSet) Add(start, end int64) {
	if end <= start {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Find insertion window of ranges overlapping or adjacent to [start,end).
	i := sort.Search(len(s.ranges), func(i int) bool { return s.ranges[i].End >= start })
	j := i
	for j < len(s.ranges) && s.ranges[j].Start <= end {
		j++
	}
	if i < j {
		if s.ranges[i].Start < start {
			start = s.ranges[i].Start
		}
		if s.ranges[j-1].End > end {
			end = s.ranges[j-1].End
		}
	}
	merged := append(s.ranges[:i:i], Range{start, end})
	s.ranges = append(merged, s.ranges[j:]...)
}

// Ranges returns a copy of the current ranges.
func (s *RangeSet) Ranges() []Range {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Range, len(s.ranges))
	copy(out, s.ranges)
	return out
}

// Covered returns the total number of bytes in the set.
func (s *RangeSet) Covered() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, r := range s.ranges {
		total += r.Len()
	}
	return total
}

// Contains reports whether [start, end) is fully covered.
func (s *RangeSet) Contains(start, end int64) bool {
	if end <= start {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.ranges {
		if r.Start <= start && end <= r.End {
			return true
		}
	}
	return false
}

// Missing returns the complement of the set within [0, size).
func (s *RangeSet) Missing(size int64) []Range {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Range
	var pos int64
	for _, r := range s.ranges {
		if r.Start >= size {
			break
		}
		if r.Start > pos {
			out = append(out, Range{pos, r.Start})
		}
		if r.End > pos {
			pos = r.End
		}
	}
	if pos < size {
		out = append(out, Range{pos, size})
	}
	return out
}

// Marker renders the set in restart-marker wire form: "0-100,200-300".
func (s *RangeSet) Marker() string {
	rs := s.Ranges()
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%d-%d", r.Start, r.End)
	}
	return strings.Join(parts, ",")
}

// ParseRanges parses restart-marker wire form back into ranges.
func ParseRanges(s string) ([]Range, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	var out []Range
	for _, part := range strings.Split(s, ",") {
		a, b, ok := strings.Cut(strings.TrimSpace(part), "-")
		if !ok {
			return nil, fmt.Errorf("gridftp: bad range %q", part)
		}
		start, err1 := strconv.ParseInt(a, 10, 64)
		end, err2 := strconv.ParseInt(b, 10, 64)
		if err1 != nil || err2 != nil || start < 0 || end < start {
			return nil, fmt.Errorf("gridftp: bad range %q", part)
		}
		out = append(out, Range{start, end})
	}
	return out, nil
}

// FromRanges builds a set containing the given ranges.
func FromRanges(rs []Range) *RangeSet {
	s := NewRangeSet()
	for _, r := range rs {
		s.Add(r.Start, r.End)
	}
	return s
}
