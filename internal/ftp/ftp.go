// Package ftp implements the RFC 959 control-channel core that GridFTP
// extends: command and reply line discipline (CRLF, multi-line replies,
// preliminary replies), reply-code classification, and a connection
// wrapper that supports mid-session transport upgrades (the AUTH TLS
// security handshake replaces the raw socket with an encrypted one built
// over it).
package ftp

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// Reply codes used throughout the GridFTP implementation.
const (
	CodeRestartMarker    = 111 // GridFTP restart marker (perf/range markers)
	CodeFileStatusOK     = 150 // about to open data connection
	CodeOK               = 200
	CodeFeatures         = 211
	CodeFileStatus       = 213 // e.g. SIZE reply
	CodeReadyForNewUser  = 220
	CodeClosingData      = 226 // transfer complete
	CodeEnteringPassive  = 227
	CodeEnteringExtPasv  = 229
	CodeUserLoggedIn     = 230
	CodeFileActionOK     = 250
	CodePathCreated      = 257
	CodeAuthOK           = 234 // RFC 2228 security exchange complete
	CodeNeedPassword     = 331
	CodeNeedAccount      = 350 // requested action pending further info (REST)
	CodeServiceNotAvail  = 421
	CodeCantOpenData     = 425
	CodeTransferAborted  = 426
	CodeActionNotTaken   = 450
	CodeLocalError       = 451
	CodeSyntaxError      = 500
	CodeParamSyntaxError = 501
	CodeNotImplemented   = 502
	CodeBadSequence      = 503
	CodeParamNotImpl     = 504
	CodeNotLoggedIn      = 530
	CodeFileUnavailable  = 550
	CodeActionAborted    = 551
	CodeBadFileName      = 553
)

// Command is one parsed control-channel command.
type Command struct {
	// Name is the upper-cased verb, e.g. "RETR", "DCSC", "SPAS".
	Name string
	// Params is the raw parameter text (may be empty).
	Params string
}

// String renders the command in wire form without the trailing CRLF.
func (c Command) String() string {
	if c.Params == "" {
		return c.Name
	}
	return c.Name + " " + c.Params
}

// ParseCommand parses one command line (without CRLF).
func ParseCommand(line string) (Command, error) {
	line = strings.TrimRight(line, "\r\n")
	if line == "" {
		return Command{}, fmt.Errorf("ftp: empty command")
	}
	name, params, _ := strings.Cut(line, " ")
	name = strings.ToUpper(name)
	for _, r := range name {
		if r < 'A' || r > 'Z' {
			return Command{}, fmt.Errorf("ftp: malformed command %q", line)
		}
	}
	return Command{Name: name, Params: params}, nil
}

// Reply is one (possibly multi-line) control-channel reply.
type Reply struct {
	Code int
	// Lines are the reply text lines; for single-line replies there is
	// exactly one entry.
	Lines []string
}

// lines is what the reply is written as: a reply with no text says OK.
func (r Reply) lines() []string {
	if len(r.Lines) == 0 {
		return okLines
	}
	return r.Lines
}

var okLines = []string{"OK"}

// Text returns the reply's lines joined by newlines.
func (r Reply) Text() string { return strings.Join(r.Lines, "\n") }

// String renders a human-readable "code text" form.
func (r Reply) String() string {
	return fmt.Sprintf("%d %s", r.Code, strings.Join(r.Lines, " / "))
}

// Preliminary reports a 1xx reply (more replies follow for this command).
func (r Reply) Preliminary() bool { return r.Code >= 100 && r.Code < 200 }

// Success reports a 2xx reply.
func (r Reply) Success() bool { return r.Code >= 200 && r.Code < 300 }

// Intermediate reports a 3xx reply.
func (r Reply) Intermediate() bool { return r.Code >= 300 && r.Code < 400 }

// TransientError reports a 4xx reply.
func (r Reply) TransientError() bool { return r.Code >= 400 && r.Code < 500 }

// PermanentError reports a 5xx reply.
func (r Reply) PermanentError() bool { return r.Code >= 500 }

// Err converts an error reply into a Go error (nil for 1xx-3xx).
func (r Reply) Err() error {
	if r.Code < 400 {
		return nil
	}
	return &ReplyError{Reply: r}
}

// ReplyError wraps an error reply.
type ReplyError struct {
	Reply Reply
}

// Error implements the error interface.
func (e *ReplyError) Error() string { return "ftp: " + e.Reply.String() }

// Temporary reports whether the failure is transient (4xx), the signal the
// Globus Online-style transfer service uses to decide whether to retry.
func (e *ReplyError) Temporary() bool { return e.Reply.TransientError() }

// Conn wraps a net.Conn with FTP line discipline. It is used by both the
// server PI (read commands, write replies) and the client PI (write
// commands, read replies).
//
// Writes are not buffered between calls: every Write* method frames what it
// was given and hands the transport those bytes as one Write — one segment,
// and one TLS record up to the size the TLS layer cuts at, for a flight of
// replies however many it holds.
type Conn struct {
	nc net.Conn
	br *bufio.Reader
}

// NewConn wraps a transport connection.
func NewConn(nc net.Conn) *Conn {
	return &Conn{nc: nc, br: bufio.NewReader(nc)}
}

// Upgrade replaces the transport with nc, which its caller has built over RW
// (a tls.Conn, after its handshake). Nothing the old line buffer holds is
// dropped and nothing in it is ever parsed as a line again: nc reads through
// that buffer, so what arrived behind the line that announced the upgrade —
// a ClientHello sent in one flight with AUTH TLS, or an attacker's plaintext
// command (the STARTTLS injection of CVE-2011-0411) — is input to nc's
// handshake and to nothing else.
func (c *Conn) Upgrade(nc net.Conn) {
	c.nc = nc
	c.br = bufio.NewReader(nc)
}

// RW returns the connection as an in-band exchange sees it — GSI delegation,
// the TLS handshake of AUTH TLS: reads go through the line buffer, so bytes
// that arrived behind the line that started the exchange are not lost, and
// everything else goes to the transport (there is no write buffer to pass).
// The view stays on the transport it was taken from across Upgrade.
func (c *Conn) RW() net.Conn { return inBand{Conn: c.nc, br: c.br} }

type inBand struct {
	net.Conn
	br *bufio.Reader
}

func (b inBand) Read(p []byte) (int, error) { return b.br.Read(p) }

// Close closes the transport.
func (c *Conn) Close() error { return c.nc.Close() }

// SetDeadline sets both read and write deadlines on the transport.
func (c *Conn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// ReadCommand reads and parses the next command line.
func (c *Conn) ReadCommand() (Command, error) {
	line, err := c.readLine()
	if err != nil {
		return Command{}, err
	}
	return ParseCommand(line)
}

// WriteCommand sends a command line, as one write.
func (c *Conn) WriteCommand(cmd Command) error {
	_, err := c.nc.Write([]byte(cmd.String() + "\r\n"))
	return err
}

// Cmd formats and sends a command.
func (c *Conn) Cmd(name, format string, args ...any) error {
	params := fmt.Sprintf(format, args...)
	return c.WriteCommand(Command{Name: name, Params: params})
}

// maxReplyBytes caps one reply, all lines together. The line cap alone lets
// a peer grow a reader without limit by never sending the last line, and a
// listing can ride in a reply (MLSC). ReadReply fails once it has read more;
// WriteReply refuses to send what ReadReply would not take.
const maxReplyBytes = 4 << 20

// ErrReplyTooLarge is returned by WriteReply, with nothing written, and by
// ReadReply, which stops reading there: after it the channel is out of step.
var ErrReplyTooLarge = errors.New("ftp: reply exceeds " + strconv.Itoa(maxReplyBytes) + " bytes")

// WriteReply sends a reply; multiple lines produce the RFC 959 multi-line
// form ("code-first ... code last").
func (c *Conn) WriteReply(code int, lines ...string) error {
	return c.WriteReplies(Reply{Code: code, Lines: lines})
}

// WriteReplies sends the replies in order, each framed as WriteReply frames
// it, as one write: a transfer's closing markers and its completion reply are
// one segment on the wire instead of one each. If any of them is too large
// for ReadReply, nothing is written.
func (c *Conn) WriteReplies(replies ...Reply) error {
	total := 0
	for _, r := range replies {
		size := 0
		for _, line := range r.lines() {
			size += len("250-") + len(line) + len("\r\n")
		}
		if size > maxReplyBytes {
			return ErrReplyTooLarge
		}
		total += size
	}
	b := make([]byte, 0, total)
	for _, r := range replies {
		lines := r.lines()
		for i, line := range lines {
			switch {
			case i == len(lines)-1: // a one-line reply is its own last line
				b = append(strconv.AppendInt(b, int64(r.Code), 10), ' ')
			case i == 0:
				b = append(strconv.AppendInt(b, int64(r.Code), 10), '-')
			default:
				b = append(b, ' ')
			}
			b = append(append(b, line...), "\r\n"...)
		}
	}
	_, err := c.nc.Write(b)
	return err
}

// ReadReply reads one full reply, collecting multi-line bodies. The lines
// behind the first are read into one buffer and cut from one string, so a
// reply costs a few allocations however many lines it has: a transfer at 16
// streams sends hundreds of six-line markers.
func (c *Conn) ReadReply() (Reply, error) {
	line, err := c.readLine()
	if err != nil {
		return Reply{}, err
	}
	if len(line) < 4 {
		return Reply{}, fmt.Errorf("ftp: short reply line %q", line)
	}
	code, err := strconv.Atoi(line[:3])
	if err != nil || code < 100 || code > 599 {
		return Reply{}, fmt.Errorf("ftp: bad reply code in %q", line)
	}
	sep := line[3]
	if sep == ' ' {
		return Reply{Code: code, Lines: []string{line[4:]}}, nil
	}
	if sep != '-' {
		return Reply{}, fmt.Errorf("ftp: bad reply separator in %q", line)
	}
	terminator := line[:3] + " "
	size := len(line)
	var bodyBuf [512]byte
	var endsBuf [16]int
	body, ends := bodyBuf[:0], endsBuf[:0] // where each line ends in body
	for last := false; !last; {
		start := len(body)
		if body, err = c.appendLine(body); err != nil {
			return Reply{}, err
		}
		// Checked before another line is read, as appendLine checks a fragment.
		if size += len(body) - start + len("\r\n"); size > maxReplyBytes {
			return Reply{}, ErrReplyTooLarge
		}
		ends = append(ends, len(body))
		last = len(body)-start >= 4 && string(body[start:start+4]) == terminator
	}
	text := string(body)
	lines := make([]string, 1, 1+len(ends))
	lines[0] = line[4:]
	start := 0
	for _, end := range ends[:len(ends)-1] {
		lines = append(lines, strings.TrimPrefix(text[start:end], " "))
		start = end
	}
	return Reply{Code: code, Lines: append(lines, text[start+4:])}, nil
}

// ReadFinalReply reads replies until a non-preliminary one arrives,
// invoking onPreliminary (if non-nil) for each 1xx reply — restart and
// performance markers flow through this path.
func (c *Conn) ReadFinalReply(onPreliminary func(Reply)) (Reply, error) {
	for {
		r, err := c.ReadReply()
		if err != nil {
			return Reply{}, err
		}
		if r.Preliminary() {
			if onPreliminary != nil {
				onPreliminary(r)
			}
			continue
		}
		return r, nil
	}
}

// Expect reads a final reply and errors unless its code matches one of
// want.
func (c *Conn) Expect(want ...int) (Reply, error) {
	r, err := c.ReadFinalReply(nil)
	if err != nil {
		return Reply{}, err
	}
	for _, w := range want {
		if r.Code == w {
			return r, nil
		}
	}
	if err := r.Err(); err != nil {
		return r, err
	}
	return r, fmt.Errorf("ftp: unexpected reply %s (want %v)", r, want)
}

const maxLineLen = 1 << 20 // DCSC blobs ride on command lines; allow 1 MiB

// readLine reads one line. A line that fits the stack buffer costs one
// allocation, the string.
func (c *Conn) readLine() (string, error) {
	var buf [256]byte
	line, err := c.appendLine(buf[:0])
	if err != nil {
		return "", err
	}
	return string(line), nil
}

// appendLine appends the next line, less its line ending, to buf. It fails as
// soon as it has seen more than maxLineLen bytes of the line: the cap is
// checked per buffered fragment, before the fragment is kept, so a peer that
// never sends a newline cannot grow memory past the cap.
func (c *Conn) appendLine(buf []byte) ([]byte, error) {
	start := len(buf)
	for {
		frag, err := c.br.ReadSlice('\n')
		if err != nil && err != bufio.ErrBufferFull {
			return buf, err
		}
		if len(buf)-start+len(frag) > maxLineLen {
			return buf, fmt.Errorf("ftp: line exceeds %d bytes", maxLineLen)
		}
		buf = append(buf, frag...)
		if err == nil {
			end := len(buf)
			for end > start && (buf[end-1] == '\r' || buf[end-1] == '\n') {
				end--
			}
			return buf[:end], nil
		}
	}
}
