package gridftp

import (
	"errors"
	"fmt"
	"net"

	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/netsim"
)

// GridFTP-Lite support (§III.B of the paper): SSH is used to start a
// GridFTP server on the target machine and the control channel is
// tunneled through the SSH session. This sidesteps X.509 setup entirely,
// but with the three limitations the paper enumerates, all reproduced
// here:
//
//  1. the data channel has no security (DCAU is forced off; PROT is
//     unavailable);
//  2. SSH supports no delegation, so transfers cannot be handed off to
//     agents like Globus Online (DELG is refused);
//  3. a striped server would have no security between the control node
//     and the data movers (stripe configuration is refused in lite mode).

// ServeLite runs one GridFTP-Lite session on an already-authenticated
// connection (the SSH tunnel): there is no AUTH exchange, the session is
// bound to localUser, and the lite restrictions apply.
func (s *Server) ServeLite(conn net.Conn, localUser string) {
	sess := &session{
		srv:  s,
		ctrl: ftp.NewConn(conn),
		spec: ChannelSpec{DCAU: DCAUNone}.Normalize(),
		cwd:  "/",
		data: s.newDataPath(),

		authenticated: true,
		localUser:     localUser,
		lite:          true,
	}
	sess.spec.DCAU = DCAUNone
	defer sess.close()
	sess.reply(ftp.CodeReadyForNewUser, "GridFTP-Lite session (SSH-tunneled control channel)")
	sess.loop()
}

// liteRefusal intercepts the commands GridFTP-Lite cannot honor; it
// returns true when the command was handled (refused).
func (sess *session) liteRefusal(cmd ftp.Command) bool {
	if !sess.lite {
		return false
	}
	switch cmd.Name {
	case "AUTH":
		sess.reply(ftp.CodeNotImplemented, "GridFTP-Lite: authentication is the SSH tunnel's")
	case "DELG":
		sess.reply(ftp.CodeNotImplemented, "GridFTP-Lite: SSH does not support delegation (paper §III.B limitation 2)")
	case "DCAU":
		if cmd.Params == "N" || cmd.Params == "n" {
			sess.reply(ftp.CodeOK, "DCAU is always N in GridFTP-Lite")
			return true
		}
		sess.reply(ftp.CodeNotImplemented, "GridFTP-Lite: the data channel has no security (paper §III.B limitation 1)")
	case "PROT":
		if cmd.Params == "C" || cmd.Params == "c" {
			sess.reply(ftp.CodeOK, "PROT is always C in GridFTP-Lite")
			return true
		}
		sess.reply(ftp.CodeNotImplemented, "GridFTP-Lite: no data channel protection available")
	case "DCSC":
		sess.reply(ftp.CodeNotImplemented, "GridFTP-Lite: no data channel security context")
	case "SPAS", "SPOR":
		sess.reply(ftp.CodeNotImplemented, "GridFTP-Lite: striping disabled — no security between control and data-mover nodes (paper §III.B limitation 3)")
	default:
		return false
	}
	return true
}

// DialLite wraps an already-tunneled, already-authenticated connection as
// a GridFTP client session (the client half of GridFTP-Lite). The session
// has no credential: every data channel runs without DCAU.
func DialLite(host *netsim.Host, conn net.Conn) (*Client, error) {
	c := &Client{
		ctrl: ftp.NewConn(conn),
		host: host,
		spec: ChannelSpec{Mode: ModeExtended, DCAU: DCAUNone}.Normalize(),
		data: newClientDataPath(host, DialOptions{}),
	}
	c.spec.DCAU = DCAUNone
	if _, err := c.expect(ftp.CodeReadyForNewUser); err != nil {
		conn.Close()
		return nil, err
	}
	if _, err := c.cmdExpect("MODE", "E", ftp.CodeOK); err != nil {
		conn.Close()
		return nil, fmt.Errorf("gridftp: MODE E: %w", err)
	}
	return c, nil
}

// ErrLiteNoDelegation is returned by Client.Delegate on lite sessions.
var ErrLiteNoDelegation = errors.New("gridftp: GridFTP-Lite sessions cannot delegate (SSH has no delegation)")
