package expfmt

import (
	"strconv"
	"strings"
	"testing"

	"gridftp.dev/instant/internal/obs"
)

func TestSanitizeName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"gridftp.server.bytes_in", "gridftp_server_bytes_in"},
		{"already_fine:colon", "already_fine:colon"},
		{"9lives", "_9lives"},
		{"with-dash and space", "with_dash_and_space"},
		{"", "_"},
		{"a.b{c}", "a_b_c_"}, // instances are split off before sanitizing
	}
	for _, c := range cases {
		if got := SanitizeName(c.in); got != c.want {
			t.Errorf("SanitizeName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestWriteTextHistogram(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("gridftp.server.sessions").Add(3)
	r.Gauge(obs.Name("netsim.link.bytes", "siteA|siteB")).Set(42)
	h := r.Histogram("gridftp.server.command_seconds", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}

	var b strings.Builder
	if err := WriteText(&b, r); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	for _, want := range []string{
		"# TYPE gridftp_server_sessions counter",
		"gridftp_server_sessions 3",
		"# TYPE netsim_link_bytes gauge",
		`netsim_link_bytes{instance="siteA|siteB"} 42`,
		"# TYPE gridftp_server_command_seconds histogram",
		`gridftp_server_command_seconds_bucket{le="+Inf"} 5`,
		"gridftp_server_command_seconds_count 5",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}

	// Bucket series must be cumulative (monotone non-decreasing) and end
	// at the total count in +Inf.
	var last int64 = -1
	buckets := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "gridftp_server_command_seconds_bucket") {
			continue
		}
		buckets++
		f := strings.Fields(line)
		v, err := strconv.ParseInt(f[len(f)-1], 10, 64)
		if err != nil {
			t.Fatalf("bucket count in %q: %v", line, err)
		}
		if v < last {
			t.Errorf("bucket counts not cumulative: %d after %d in %q", v, last, line)
		}
		last = v
	}
	if buckets != 4 { // 3 finite bounds + the +Inf bucket
		t.Errorf("got %d bucket lines, want 4", buckets)
	}
	if last != 5 {
		t.Errorf("+Inf bucket = %d, want total count 5", last)
	}
}

func TestTypeHeadersContiguous(t *testing.T) {
	// "a.b2" sorts lexically between "a.b" and "a.b{x}"; the exposition
	// must still keep both a_b series under one TYPE header.
	r := obs.NewRegistry()
	r.Counter("a.b").Inc()
	r.Counter("a.b2").Inc()
	r.Counter(obs.Name("a.b", "x")).Inc()
	var b strings.Builder
	if err := WriteText(&b, r); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	seen := make(map[string]bool)
	current := ""
	for _, line := range lines {
		if strings.HasPrefix(line, "# TYPE ") {
			name := strings.Fields(line)[2]
			if seen[name] {
				t.Fatalf("TYPE header for %s repeated — series not contiguous:\n%s", name, b.String())
			}
			seen[name] = true
			current = name
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if name != current {
			t.Errorf("sample %q under TYPE header %q", line, current)
		}
	}
}
