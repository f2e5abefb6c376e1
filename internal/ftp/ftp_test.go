package ftp

import (
	"errors"
	"net"
	"strings"
	"testing"
	"testing/quick"
)

func connPair() (*Conn, *Conn) {
	a, b := net.Pipe()
	return NewConn(a), NewConn(b)
}

func TestCommandRoundTrip(t *testing.T) {
	client, server := connPair()
	go func() {
		client.WriteCommand(Command{Name: "RETR", Params: "/data/file.bin"})
		client.Cmd("PASV", "")
		client.Cmd("DCSC", "P %s", "YmxvYg==")
	}()
	cmd, err := server.ReadCommand()
	if err != nil {
		t.Fatal(err)
	}
	if cmd.Name != "RETR" || cmd.Params != "/data/file.bin" {
		t.Fatalf("got %+v", cmd)
	}
	cmd, _ = server.ReadCommand()
	if cmd.Name != "PASV" || cmd.Params != "" {
		t.Fatalf("got %+v", cmd)
	}
	cmd, _ = server.ReadCommand()
	if cmd.Name != "DCSC" || cmd.Params != "P YmxvYg==" {
		t.Fatalf("got %+v", cmd)
	}
}

func TestParseCommand(t *testing.T) {
	c, err := ParseCommand("retr /path with spaces\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "RETR" || c.Params != "/path with spaces" {
		t.Fatalf("%+v", c)
	}
	for _, bad := range []string{"", "\r\n", "123 x", "RE TR?bad verb!extra junk\x01"} {
		if _, err := ParseCommand(bad); err == nil && !strings.Contains(bad, " ") {
			t.Errorf("ParseCommand(%q) should fail", bad)
		}
	}
	if _, err := ParseCommand("123 x"); err == nil {
		t.Error("numeric verb should fail")
	}
}

func TestSingleLineReply(t *testing.T) {
	client, server := connPair()
	go server.WriteReply(230, "User logged in")
	r, err := client.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != 230 || r.Lines[0] != "User logged in" {
		t.Fatalf("%+v", r)
	}
	if r.Err() != nil {
		t.Fatal("230 should be success")
	}
}

func TestMultiLineReply(t *testing.T) {
	client, server := connPair()
	go server.WriteReply(211, "Features:", "PASV", "SPAS", "DCSC", "End")
	r, err := client.ReadReply()
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != 211 || len(r.Lines) != 5 {
		t.Fatalf("%+v", r)
	}
	if r.Lines[2] != "SPAS" || r.Lines[4] != "End" {
		t.Fatalf("%+v", r)
	}
}

func TestPreliminaryRepliesSkipped(t *testing.T) {
	client, server := connPair()
	go func() {
		server.WriteReply(150, "Opening data connection")
		server.WriteReply(111, "Range Marker 0-1048576")
		server.WriteReply(226, "Transfer complete")
	}()
	var markers []Reply
	r, err := client.ReadFinalReply(func(p Reply) { markers = append(markers, p) })
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != 226 {
		t.Fatalf("final %+v", r)
	}
	if len(markers) != 2 || markers[1].Code != 111 {
		t.Fatalf("markers %+v", markers)
	}
}

func TestExpect(t *testing.T) {
	client, server := connPair()
	go func() {
		server.WriteReply(200, "OK")
		server.WriteReply(550, "No such file")
	}()
	if _, err := client.Expect(200); err != nil {
		t.Fatal(err)
	}
	_, err := client.Expect(226)
	var re *ReplyError
	if !errors.As(err, &re) || re.Reply.Code != 550 {
		t.Fatalf("want ReplyError 550, got %v", err)
	}
}

func TestReplyErrClassification(t *testing.T) {
	if (Reply{Code: 426}).Err() == nil {
		t.Fatal("426 should err")
	}
	var re *ReplyError
	if !errors.As((Reply{Code: 426}).Err(), &re) || re.Reply.Code != 426 {
		t.Fatal("426's error should carry the reply")
	}
	if (Reply{Code: 350}).Err() != nil {
		t.Fatal("350 should not err")
	}
}

func TestBadReplies(t *testing.T) {
	for _, wire := range []string{"xx\r\n", "99 too low\r\n", "abc hello\r\n", "200?sep\r\n"} {
		a, b := net.Pipe()
		c := NewConn(a)
		go func() { b.Write([]byte(wire)); b.Close() }()
		if _, err := c.ReadReply(); err == nil {
			t.Errorf("ReadReply(%q) should fail", wire)
		}
	}
}

func TestReplyRoundTripProperty(t *testing.T) {
	f := func(code int, body string) bool {
		code = 100 + (abs(code) % 500)
		line := strings.Map(func(r rune) rune {
			if r == '\r' || r == '\n' {
				return ' '
			}
			return r
		}, body)
		client, server := connPair()
		go server.WriteReply(code, line)
		r, err := client.ReadReply()
		return err == nil && r.Code == code && r.Lines[0] == line
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// xorConn stands in for a security layer: every byte it carries is flipped
// on the wire, so a byte read on the wrong side of an upgrade is garbage.
type xorConn struct{ net.Conn }

func (x xorConn) Read(p []byte) (int, error) {
	n, err := x.Conn.Read(p)
	for i := range p[:n] {
		p[i] ^= 0xff
	}
	return n, err
}

func (x xorConn) Write(p []byte) (int, error) {
	q := make([]byte, len(p))
	for i := range p {
		q[i] = p[i] ^ 0xff
	}
	return x.Conn.Write(q)
}

// TestUpgradeSwapsTransport: replies cross on the old transport before the
// upgrade and on the new one after it. The new transport is built over RW, so
// when its first bytes arrived in one segment with the last line of the old
// one — they sit in the line buffer by the time Upgrade runs — they are the
// new transport's input: not dropped, and not parsed as a line of the old.
func TestUpgradeSwapsTransport(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	go ca.WriteReply(220, "ready")
	if r, _ := cb.ReadReply(); r.Code != 220 {
		t.Fatal("pre-upgrade reply lost")
	}
	ca.Upgrade(xorConn{ca.RW()})
	cb.Upgrade(xorConn{cb.RW()})
	go ca.WriteReply(234, "secured")
	if r, _ := cb.ReadReply(); r.Code != 234 {
		t.Fatal("post-upgrade reply lost")
	}

	t.Run("bytes buffered behind the last line", func(t *testing.T) {
		a, b := net.Pipe()
		cb := NewConn(b)
		secured := []byte("200 over the new transport\r\n")
		for i := range secured {
			secured[i] ^= 0xff
		}
		go a.Write(append([]byte("234 go ahead\r\n"), secured...)) // one segment
		if r, _ := cb.ReadReply(); r.Code != 234 {
			t.Fatal("the line that announces the upgrade was lost")
		}
		if cb.br.Buffered() != len(secured) {
			t.Fatalf("%d bytes buffered behind the 234, want the %d of the next transport", cb.br.Buffered(), len(secured))
		}
		cb.Upgrade(xorConn{cb.RW()})
		if r, err := cb.ReadReply(); err != nil || r.Code != 200 || r.Lines[0] != "over the new transport" {
			t.Fatalf("the buffered bytes did not reach the new transport: %v %v", r, err)
		}
	})
}
