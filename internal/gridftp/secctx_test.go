package gridftp

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/netsim"
)

// The two directions' keys of the integrity tests.
var keyAB, keyBA = []byte("0123456789abcdef0123456789abcdef"), []byte("fedcba9876543210fedcba9876543210")

func integrityPair() (net.Conn, net.Conn) {
	a, b := net.Pipe()
	return newIntegrityConn(a, keyAB, keyBA), newIntegrityConn(b, keyBA, keyAB)
}

func TestIntegrityConnRoundTrip(t *testing.T) {
	ca, cb := integrityPair()
	payload := pattern(300000)
	go func() {
		ca.Write(payload)
	}()
	got := make([]byte, len(payload))
	if _, err := io.ReadFull(cb, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("integrity round trip mismatch")
	}
}

func TestIntegrityConnDetectsTampering(t *testing.T) {
	raw1, raw2 := net.Pipe()
	ic := newIntegrityConn(raw2, keyBA, keyAB)
	// Handcraft a frame with a bad tag.
	go func() {
		frame := []byte{0, 0, 0, 4, 'e', 'v', 'i', 'l'}
		tag := make([]byte, integrityTagLen) // zero tag, definitely wrong
		raw1.Write(append(frame, tag...))
	}()
	buf := make([]byte, 4)
	if _, err := ic.Read(buf); err == nil {
		t.Fatal("tampered frame accepted")
	}
}

func TestIntegrityConnDetectsReordering(t *testing.T) {
	// Two frames written with sequence 0 and 1; replaying frame 0 twice
	// (a reorder/replay) must fail the second verification.
	a, b := net.Pipe()
	w := newIntegrityConn(a, keyAB, keyBA)
	r := newIntegrityConn(b, keyBA, keyAB)
	done := make(chan []byte, 1)
	go func() {
		// Capture the wire form of one frame by writing through a recorder.
		rec := &recorderConn{Conn: a}
		w.Conn = rec
		w.Write([]byte("hello"))
		done <- rec.buf.Bytes()
	}()
	buf := make([]byte, 5)
	if _, err := io.ReadFull(r, buf); err != nil {
		t.Fatal(err)
	}
	wire := <-done
	// Replay the identical bytes: the receiver's sequence is now 1, so
	// the tag (computed for seq 0) must not verify.
	go func() { b2 := wire; a.Write(b2) }()
	if _, err := io.ReadFull(r, buf); err == nil {
		t.Fatal("replayed frame accepted")
	}
}

// TestIntegrityConnRejectsEveryTampering takes the wire form of two good
// frames and damages it three ways — a payload byte, a tag byte, the tail cut
// off: the second frame must fail the read each time, and an untouched copy
// must not. Nor may the frames be read by the end that wrote them: each
// direction has its own key, so a frame reflected to its sender — whose read
// sequence number would match — is refused at the first.
func TestIntegrityConnRejectsEveryTampering(t *testing.T) {
	a, b := net.Pipe()
	rec := &recorderConn{Conn: a}
	w := newIntegrityConn(rec, keyAB, keyBA)
	go io.Copy(io.Discard, b)
	first, second := pattern(1000), pattern(5000)
	w.Write(first)
	w.Write(second)
	a.Close()
	wire := rec.buf.Bytes()
	if want := 2*(4+integrityTagLen) + len(first) + len(second); len(wire) != want {
		t.Fatalf("two frames are %d bytes on the wire, want %d", len(wire), want)
	}
	secondAt := 4 + len(first) + integrityTagLen

	for _, tc := range []struct {
		name   string
		damage func(wire []byte) []byte
		ok     bool
	}{
		{"untouched", func(w []byte) []byte { return w }, true},
		{"payload byte flipped", func(w []byte) []byte { w[secondAt+4+100] ^= 1; return w }, false},
		{"tag byte flipped", func(w []byte) []byte { w[len(w)-1] ^= 1; return w }, false},
		{"frame truncated", func(w []byte) []byte { return w[:len(w)-10] }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in, out := net.Pipe()
			go func() {
				in.Write(tc.damage(append([]byte(nil), wire...)))
				in.Close()
			}()
			r := newIntegrityConn(out, keyBA, keyAB)
			got := make([]byte, len(first))
			if _, err := io.ReadFull(r, got); err != nil || !bytes.Equal(got, first) {
				t.Fatalf("the intact first frame: %v", err)
			}
			got = make([]byte, len(second))
			_, err := io.ReadFull(r, got)
			if tc.ok && (err != nil || !bytes.Equal(got, second)) {
				t.Fatalf("the intact second frame: %v", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("the damaged frame was accepted")
			}
		})
	}
	t.Run("reflected frame refused", func(t *testing.T) {
		in, out := net.Pipe()
		go func() {
			in.Write(wire)
			in.Close()
		}()
		sender := newIntegrityConn(out, keyAB, keyBA) // the writer's own end: it reads under keyBA
		if _, err := io.ReadFull(sender, make([]byte, len(first))); err == nil {
			t.Fatal("a frame sent back to its sender was accepted")
		}
	})
}

// loopConn reads back what was written to it, and counts the writes; it takes
// vectored writes, as netsim conns do.
type loopConn struct {
	net.Conn
	buf    bytes.Buffer
	writes int
}

func (l *loopConn) WriteBuffers(bufs [][]byte) (n int64, err error) {
	l.writes++
	for _, b := range bufs {
		l.buf.Write(b)
		n += int64(len(b))
	}
	return n, nil
}
func (l *loopConn) Write(p []byte) (int, error) { l.writes++; return l.buf.Write(p) }
func (l *loopConn) Read(p []byte) (int, error)  { return l.buf.Read(p) }

// TestIntegrityConnFramesWithoutAllocating: one keyed HMAC per direction and
// tag buffers that live in the conn — a frame costs no allocation either way
// and one write on the conn below, vectored or not.
func TestIntegrityConnFramesWithoutAllocating(t *testing.T) {
	payload, got := pattern(64<<10), make([]byte, 64<<10)
	for _, vectored := range []bool{true, false} {
		lc := &loopConn{}
		c := newIntegrityConn(lc, keyAB, keyAB) // a loop: it reads what it wrote
		if c.vw == nil {
			t.Fatal("the conn below takes vectored writes; the integrity layer did not notice")
		}
		if !vectored {
			c.vw = nil
		}
		frame := func() {
			if _, err := c.Write(payload); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(c, got); err != nil {
				t.Fatal(err)
			}
		}
		frame() // sizes the scratch buffers
		lc.writes = 0
		if allocs := testing.AllocsPerRun(50, frame); allocs != 0 {
			t.Errorf("vectored=%v: a frame costs %.1f allocations written and read, want 0", vectored, allocs)
		}
		if lc.writes != 51 { // AllocsPerRun warms up with one extra call
			t.Errorf("vectored=%v: %d writes for 51 frames", vectored, lc.writes)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload differs")
		}
	}
}

type recorderConn struct {
	net.Conn
	buf bytes.Buffer
}

func (r *recorderConn) Write(p []byte) (int, error) {
	r.buf.Write(p)
	return r.Conn.Write(p)
}

func TestIntegrityConnPropertyRoundTrip(t *testing.T) {
	f := func(chunks [][]byte) bool {
		var want []byte
		for _, c := range chunks {
			want = append(want, c...)
		}
		ca, cb := integrityPair()
		go func() {
			for _, c := range chunks {
				if len(c) > 0 {
					ca.Write(c)
				}
			}
		}()
		got := make([]byte, len(want))
		if len(want) > 0 {
			if _, err := io.ReadFull(cb, got); err != nil {
				return false
			}
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMlsxParse(t *testing.T) {
	e, err := ParseMlsxLine("Type=file;Size=123;Modify=20120201120000; data.bin")
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "data.bin" || e.Size != 123 || e.IsDir {
		t.Fatalf("%+v", e)
	}
	d, err := ParseMlsxLine("Type=dir;Size=0;Modify=20120201120000; subdir with spaces")
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsDir || d.Name != "subdir with spaces" {
		t.Fatalf("%+v", d)
	}
	for _, bad := range []string{"", "nofacts", "Type=file;Size=x; f", "Size=1; noType"} {
		if _, err := ParseMlsxLine(bad); err == nil {
			t.Errorf("ParseMlsxLine(%q) should fail", bad)
		}
	}
}

func TestClientWalk(t *testing.T) {
	nw := netsim.NewNetwork()
	s := newSite(t, nw, "siteA")
	c := s.connect(t, nw.Host("laptop"), true)
	s.storage.Mkdir("alice", "/tree")
	s.storage.Mkdir("alice", "/tree/a")
	s.storage.Mkdir("alice", "/tree/a/b")
	s.putFile(t, "/tree/top.txt", []byte("1"))
	s.putFile(t, "/tree/a/mid.txt", []byte("2"))
	s.putFile(t, "/tree/a/b/leaf.txt", []byte("3"))
	w, err := walk(c, "/tree")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"top.txt": true, "a/mid.txt": true, "a/b/leaf.txt": true}
	if len(w.Files) != len(want) {
		t.Fatalf("walk %v", w.Files)
	}
	for _, f := range w.Files {
		if !want[f.Rel] {
			t.Fatalf("unexpected walk entry %q in %v", f.Rel, w.Files)
		}
	}
	if !w.IsDir || !reflect.DeepEqual(w.Dirs, []string{"a", "a/b"}) {
		t.Fatalf("walk: directory %v, directories below it %v", w.IsDir, w.Dirs)
	}
}

func TestSecureDataRejectsProtWithoutDCAU(t *testing.T) {
	nw := netsim.NewNetwork()
	l, _ := nw.Listen("s", 1)
	defer l.Close()
	go l.Accept()
	conn, _ := nw.Dial("c", "s:1")
	defer conn.Close()
	if _, err := secureData(conn, nil, DCAUNone, ProtPrivate, false); err == nil {
		t.Fatal("PROT P with DCAU N accepted")
	}
	if _, err := secureData(conn, nil, DCAUSelf, ProtClear, false); err == nil {
		t.Fatal("DCAU without credential accepted")
	}
}

func TestDCSCBlobRejectsKeyless(t *testing.T) {
	ca, _ := gsi.NewCA("/O=x/CN=CA", time.Hour)
	user, _ := ca.Issue(gsi.IssueOptions{Subject: "/O=x/CN=u", Lifetime: time.Hour})
	keyless := &gsi.Credential{Cert: user.Cert, Chain: user.Chain}
	blob, err := EncodeDCSCBlob(keyless)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDCSCBlob(blob, gsi.NewTrustStore()); err == nil {
		t.Fatal("keyless DCSC blob accepted (endpoint could not present it)")
	}
}
