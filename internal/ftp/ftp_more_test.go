package ftp

import (
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

func TestCmdFormatting(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	go ca.Cmd("OPTS", "RETR Parallelism=%d,%d,%d;", 4, 4, 4)
	cmd, err := cb.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Params != "RETR Parallelism=4,4,4;" {
		t.Fatalf("params %q", cmd.Params)
	}
	if cmd.String() != "OPTS RETR Parallelism=4,4,4;" {
		t.Fatalf("wire form %q", cmd.String())
	}
	if (Command{Name: "NOOP"}).String() != "NOOP" {
		t.Fatal("bare command wire form")
	}
}

func TestReplyText(t *testing.T) {
	r := Reply{Code: 211, Lines: []string{"a", "b", "c"}}
	if r.Text() != "a\nb\nc" {
		t.Fatalf("%q", r.Text())
	}
	if !strings.Contains(r.String(), "211") {
		t.Fatalf("%q", r.String())
	}
}

func TestWriteReplyDefaultsToOK(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	go ca.WriteReply(200)
	r, err := cb.ReadReply()
	if err != nil || r.Lines[0] != "OK" {
		t.Fatalf("%v %v", r, err)
	}
}

func TestConnDeadline(t *testing.T) {
	a, b := net.Pipe()
	ca := NewConn(a)
	defer b.Close()
	ca.SetDeadline(time.Now().Add(20 * time.Millisecond))
	if _, err := ca.ReadReply(); err == nil {
		t.Fatal("deadline not enforced")
	}
}

func TestRWInterleavesWithLineProtocol(t *testing.T) {
	// A reply, then raw bytes through RW, then another reply — the
	// pattern delegation uses — must not lose or reorder bytes.
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	go func() {
		ca.WriteReply(200, "before")
		ca.RW().Write([]byte("RAWDATA\n"))
		ca.WriteReply(200, "after")
	}()
	if r, err := cb.ReadReply(); err != nil || r.Lines[0] != "before" {
		t.Fatalf("%v %v", r, err)
	}
	raw := make([]byte, 8)
	if _, err := io.ReadFull(cb.RW(), raw); err != nil {
		t.Fatal(err)
	}
	if string(raw) != "RAWDATA\n" {
		t.Fatalf("%q", raw)
	}
	if r, err := cb.ReadReply(); err != nil || r.Lines[0] != "after" {
		t.Fatalf("%v %v", r, err)
	}
}

func TestMultilineReplyWithBlankInteriorLines(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	go ca.WriteReply(211, "Features:", "", "MODE E", "End")
	r, err := cb.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Lines) != 4 || r.Lines[1] != "" || r.Lines[3] != "End" {
		t.Fatalf("%v", r.Lines)
	}
}

func TestReadFinalReplyPropagatesReadError(t *testing.T) {
	a, b := net.Pipe()
	ca := NewConn(a)
	go func() {
		b.Write([]byte("150 preliminary\r\n"))
		b.Close()
	}()
	if _, err := ca.ReadFinalReply(nil); err == nil {
		t.Fatal("EOF mid-reply-stream not reported")
	}
}

// readerConn is a read-only net.Conn over r that counts what was consumed.
type readerConn struct {
	net.Conn
	r        io.Reader
	consumed int
}

func (c *readerConn) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.consumed += n
	return n, err
}

// endless yields 'A' forever: a peer that never sends a newline.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'A'
	}
	return len(p), nil
}

// TestReadLineBoundedBeforeBuffering: the line cap applies to what is being
// accumulated, not to a line that has already been buffered whole — an
// unauthenticated peer that never sends a newline is cut off after the cap
// plus at most one read buffer, on the command side and the reply side.
func TestReadLineBoundedBeforeBuffering(t *testing.T) {
	const readBuffer = 4096 // bufio's default, which NewConn uses
	for name, read := range map[string]func(*Conn) error{
		"command": func(c *Conn) error { _, err := c.ReadCommand(); return err },
		"reply":   func(c *Conn) error { _, err := c.ReadReply(); return err },
	} {
		nc := &readerConn{r: endless{}}
		err := read(NewConn(nc))
		if err == nil || !strings.Contains(err.Error(), "exceeds") {
			t.Fatalf("%s: endless line returned %v, want the line-length error", name, err)
		}
		if nc.consumed > maxLineLen+readBuffer {
			t.Fatalf("%s: consumed %d bytes before failing, want at most %d", name, nc.consumed, maxLineLen+readBuffer)
		}
	}
}

// TestReadLineAcceptsCapSizedLine: DCSC blobs ride on command lines, so a
// line one byte under the 1 MiB cap still parses, and the next line after
// it is intact.
func TestReadLineAcceptsCapSizedLine(t *testing.T) {
	blob := strings.Repeat("x", maxLineLen-1-len("DCSC P \r\n"))
	c := NewConn(&readerConn{r: strings.NewReader("DCSC P " + blob + "\r\nNOOP\r\n")})
	cmd, err := c.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Name != "DCSC" || cmd.Params != "P "+blob {
		t.Fatalf("parsed %s with %d parameter bytes, want DCSC with %d", cmd.Name, len(cmd.Params), len(blob)+2)
	}
	if cmd, err = c.ReadCommand(); err != nil || cmd.Name != "NOOP" {
		t.Fatalf("line after the long one: %v %v", cmd, err)
	}
	over := strings.Repeat("x", maxLineLen) + "\r\n"
	if _, err := NewConn(&readerConn{r: strings.NewReader(over)}).ReadCommand(); err == nil {
		t.Fatal("a line over the cap parsed")
	}
}

// endlessReply opens a multi-line reply and never sends its last line: every
// line is short, so only the cap on the reply as a whole stops it.
type endlessReply struct{ opened bool }

func (e *endlessReply) Read(p []byte) (int, error) {
	if !e.opened {
		e.opened = true
		return copy(p, "250-Listing\r\n"), nil
	}
	const line = " Type=file;Size=1;Modify=20120131123001; f\r\n"
	n := 0
	for n+len(line) <= len(p) {
		n += copy(p[n:], line)
	}
	if n == 0 {
		n = copy(p, line)
	}
	return n, nil
}

// TestReadReplyBoundedBeforeBuffering: a server that keeps a multi-line reply
// open forever is cut off at the reply cap with an error — not a truncated
// reply — having been read at most one read buffer past it.
func TestReadReplyBoundedBeforeBuffering(t *testing.T) {
	const readBuffer = 4096
	nc := &readerConn{r: &endlessReply{}}
	r, err := NewConn(nc).ReadReply()
	if !errors.Is(err, ErrReplyTooLarge) || len(r.Lines) != 0 {
		t.Fatalf("endless reply returned %d lines and %v, want none and ErrReplyTooLarge", len(r.Lines), err)
	}
	if nc.consumed > maxReplyBytes+readBuffer {
		t.Fatalf("consumed %d bytes before failing, want at most %d", nc.consumed, maxReplyBytes+readBuffer)
	}
}

// TestWriteReplyRefusesWhatReadReplyWould: the writer's bound is the reader's.
// A reply just under the cap travels whole; the same reply with one more line
// is refused with nothing written, so the channel stays usable.
func TestWriteReplyRefusesWhatReadReplyWould(t *testing.T) {
	line := strings.Repeat("x", 1018) // 1 KiB on the wire with "250-" and CRLF
	lines := make([]string, maxReplyBytes/1024)
	for i := range lines {
		lines[i] = line
	}
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer a.Close()
	defer b.Close()
	if err := ca.WriteReply(250, append(lines, line)...); !errors.Is(err, ErrReplyTooLarge) {
		t.Fatalf("over-cap reply: %v, want ErrReplyTooLarge", err)
	}
	go ca.WriteReply(250, lines...)
	r, err := cb.ReadReply()
	if err != nil || len(r.Lines) != len(lines) {
		t.Fatalf("cap-sized reply: %d lines, %v; want %d", len(r.Lines), err, len(lines))
	}
}

// writeLog is a transport that records each Write it is handed.
type writeLog struct {
	net.Conn
	writes []string
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.writes = append(w.writes, string(p))
	return len(p), nil
}

// TestFlightIsOneWrite: WriteReplies hands the transport one Write however
// many replies it frames, the bytes are what one call per reply writes, and
// nothing waits in the Conn between calls — 40 multi-line replies (past
// 4 KiB, where a buffered writer would have cut) included. A flight with one
// reply too large for ReadReply writes nothing.
func TestFlightIsOneWrite(t *testing.T) {
	var flight []Reply
	for i := 0; i < 40; i++ {
		flight = append(flight, Reply{Code: 112, Lines: []string{"Perf Marker", strings.Repeat("x", 100), "", "End"}})
	}
	flight = append(flight, Reply{Code: 226, Lines: []string{"Transfer complete"}}, Reply{Code: 200})

	one, each := &writeLog{}, &writeLog{}
	if err := NewConn(one).WriteReplies(flight...); err != nil {
		t.Fatal(err)
	}
	ce := NewConn(each)
	for _, r := range flight {
		if err := ce.WriteReply(r.Code, r.Lines...); err != nil {
			t.Fatal(err)
		}
	}
	if len(one.writes) != 1 || len(each.writes) != len(flight) {
		t.Fatalf("%d writes for the flight and %d for its %d replies one by one, want 1 and %d",
			len(one.writes), len(each.writes), len(flight), len(flight))
	}
	if one.writes[0] != strings.Join(each.writes, "") {
		t.Fatalf("a flight's bytes differ from its replies' written one by one:\n%q\n%q", one.writes[0], strings.Join(each.writes, ""))
	}
	if !strings.HasSuffix(one.writes[0], "112 End\r\n226 Transfer complete\r\n200 OK\r\n") {
		t.Fatalf("flight ends %q", one.writes[0][len(one.writes[0])-60:])
	}

	huge := &writeLog{}
	err := NewConn(huge).WriteReplies(Reply{Code: 112, Lines: []string{"ok"}}, Reply{Code: 250, Lines: []string{strings.Repeat("x", maxReplyBytes)}})
	if !errors.Is(err, ErrReplyTooLarge) || len(huge.writes) != 0 {
		t.Fatalf("flight with an over-cap reply: %v and %d writes, want ErrReplyTooLarge and none", err, len(huge.writes))
	}
}
