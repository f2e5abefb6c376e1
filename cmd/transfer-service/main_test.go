package main

import "testing"

func TestParseSize(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int // 0: refused
	}{
		{"8M", 8 << 20},
		{"256K", 256 << 10},
		{"4096", 4096},
		{"1024M", 1 << 30},
		{"1025M", 0},
		{"2G", 0},
		{"0", 0},
		{"0K", 0},
		{"-1M", 0},
		{"x", 0},
		{"M", 0},
		{"", 0},
		{"8m", 0},
		{"99999999999999999999M", 0},
	} {
		got, err := parseSize(c.in)
		if c.want == 0 {
			if err == nil {
				t.Errorf("parseSize(%q) = %d, want it refused", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("parseSize(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}
