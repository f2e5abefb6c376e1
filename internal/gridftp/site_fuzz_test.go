package gridftp

import (
	"net"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/obs"
)

// discardConn is a net.Conn that swallows writes and EOFs reads — just
// enough transport for a session to emit control replies without a peer.
type discardConn struct{}

func (discardConn) Read([]byte) (int, error)         { return 0, net.ErrClosed }
func (discardConn) Write(p []byte) (int, error)      { return len(p), nil }
func (discardConn) Close() error                     { return nil }
func (discardConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (discardConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (discardConn) SetDeadline(time.Time) error      { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// FuzzSiteDispatch drives the SITE subcommand dispatcher with arbitrary
// parameter strings — the rawest remote-controlled surface of the
// control channel (SITE is the FTP extension namespace, so anything a
// client sends after "SITE " lands here). The dispatcher must never
// panic, must answer every input with exactly one final reply, must
// never install a task label that violates the label bounds (labels
// name rows of the stream health table), and must never let a malformed
// traceparent disturb an installed trace context.
func FuzzSiteDispatch(f *testing.F) {
	f.Add("HELP")
	f.Add("help extra junk")
	f.Add("TRACE 00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("TRACE not-a-traceparent")
	f.Add("TASK task-42")
	f.Add("TASK " + strings.Repeat("x", 200))
	f.Add("TASK a b")
	f.Add("TASK")
	f.Add("NOSUCH subcommand")
	f.Add("")
	f.Add("   ")
	f.Add("TrAcE\t00-0-0-0")
	f.Add("TASK \x00\xff")

	valid := "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	f.Fuzz(func(t *testing.T, params string) {
		srv := &Server{log: (*obs.Obs)(nil).Logger()}
		sess := &session{
			srv:  srv,
			ctrl: ftp.NewConn(discardConn{}),
			log:  srv.log,
			spec: ChannelSpec{}.Normalize(),
			cwd:  "/",
		}
		// Pre-install a known-good trace context so the fuzzer can prove
		// malformed TRACE params never clobber it.
		pre, err := obs.Extract(valid)
		if err != nil {
			t.Fatalf("seed traceparent rejected: %v", err)
		}
		sess.traceCtx = pre

		sess.handleSite(params)

		if sess.lastReplyCode < 200 {
			t.Fatalf("SITE %q finished without a final reply (last code %d)", params, sess.lastReplyCode)
		}
		if len(sess.task) > maxTaskLabel || strings.ContainsAny(sess.task, " \t") {
			t.Fatalf("SITE %q installed out-of-bounds task label %q", params, sess.task)
		}
		if sess.traceCtx != pre {
			// Only a successful SITE TRACE may replace the context, and
			// whatever it installed must itself be valid.
			sub, rest, _ := strings.Cut(strings.TrimSpace(params), " ")
			if !strings.EqualFold(sub, "TRACE") {
				t.Fatalf("SITE %q (not TRACE) replaced the trace context", params)
			}
			want, err := obs.Extract(strings.TrimSpace(rest))
			if err != nil || sess.traceCtx != want {
				t.Fatalf("SITE %q installed context %+v not matching its params", params, sess.traceCtx)
			}
		}
	})
}
