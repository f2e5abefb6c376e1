package gridftp

import (
	"bufio"
	"io"
	"strings"
	"testing"
	"time"

	"gridftp.dev/instant/internal/dsi"
	"gridftp.dev/instant/internal/ftp"
	"gridftp.dev/instant/internal/netsim"
)

// hostileBlocks are what a peer on the data channel can send that no
// receive may hand to storage: a 19-byte block at offset 2^63, which reached
// WriteAt as a negative offset and panicked the process, and an EOF that
// announces more streams than the session negotiated (one), for which the
// receive waited on connections that never come.
var hostileBlocks = map[string]Block{
	"offset 2^63":       {Desc: DescRestartable, Count: 2, Offset: 1 << 63, Data: []byte("xx")},
	"EOF of 2 streams":  {Desc: DescEOF, Offset: 2},
	"EOF of no streams": {Desc: DescEOF | DescEOD, Offset: 0},
}

// TestServerRefusesAHostileBlock: an authenticated client sends a hostile
// block on a STOR's data connection. The receive refuses it before storage
// sees it, the STOR fails with a 4xx, and the session — and the server — live
// on: NOOP answers 200.
func TestServerRefusesAHostileBlock(t *testing.T) {
	for name, b := range hostileBlocks {
		t.Run(name, func(t *testing.T) {
			nw := netsim.NewNetwork()
			s := newSite(t, nw, "siteA")
			ctrl := rawSession(t, s, nw)
			for _, cmd := range []string{"DCAU N", "MODE E", "TYPE I"} {
				name, params, _ := strings.Cut(cmd, " ")
				ctrl.Cmd(name, "%s", params)
				if r, err := ctrl.ReadFinalReply(nil); err != nil || r.Code != ftp.CodeOK {
					t.Fatalf("%s: %v, %v", cmd, r, err)
				}
			}
			ctrl.Cmd("PASV", "")
			r, err := ctrl.ReadFinalReply(nil)
			if err != nil || r.Code != ftp.CodeEnteringPassive {
				t.Fatalf("PASV: %v, %v", r, err)
			}
			text := r.Lines[0]
			addr := text[strings.Index(text, "(")+1 : strings.LastIndex(text, ")")]
			ctrl.Cmd("STOR", "/evil")
			data, err := nw.Host("laptop").Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer data.Close()
			if err := WriteBlock(data, &b); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if r, err = ctrl.ReadFinalReply(nil); err != nil || r.Code/100 != 4 || strings.Contains(r.Text(), "write at") {
				t.Fatalf("STOR behind the block: %v, %v; want a 4xx from the receive, before storage", r, err)
			}
			if took := time.Since(start); took > time.Second {
				t.Errorf("the refusal took %v", took)
			}
			ctrl.Cmd("NOOP", "")
			if r, err = ctrl.ReadFinalReply(nil); err != nil || r.Code != ftp.CodeOK {
				t.Fatalf("NOOP behind the refused STOR: %v, %v; want 200", r, err)
			}
		})
	}
}

// TestGetRefusesAHostileServer: a server that answers a Get's PORT and RETR
// by connecting and sending a hostile block makes the Get fail, and the
// client lives on: its NOOP is answered. (A GridFTP-Lite session, so the
// test can speak the server's half of the control channel in cleartext.)
func TestGetRefusesAHostileServer(t *testing.T) {
	for name, b := range hostileBlocks {
		t.Run(name, func(t *testing.T) {
			nw := netsim.NewNetwork()
			l, err := nw.Host("evil").Listen(DefaultPort)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				serverEnd, err := l.Accept()
				if err != nil {
					return
				}
				defer serverEnd.Close()
				io.WriteString(serverEnd, "220 ready\r\n")
				lines := bufio.NewScanner(serverEnd)
				for lines.Scan() {
					verb, param, _ := strings.Cut(lines.Text(), " ")
					switch verb {
					case "PORT":
						data, err := nw.Host("evil").Dial(param)
						if err != nil {
							return
						}
						defer data.Close()
						WriteBlock(data, &b)
						io.WriteString(serverEnd, "200 PORT command successful\r\n")
					case "RETR":
						io.WriteString(serverEnd, "150 Opening data connection\r\n226 Transfer complete\r\n")
					default:
						io.WriteString(serverEnd, "200 OK\r\n")
					}
				}
			}()
			clientEnd, err := nw.Host("laptop").Dial(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			c, err := DialLite(nw.Host("laptop"), clientEnd)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.Get("/evil", dsi.NewBufferFile(nil)); err == nil || strings.Contains(err.Error(), "write at") {
				t.Fatalf("a Get of a hostile block returned %v; want the receive's refusal, before storage", err)
			}
			if err := c.Noop(); err != nil {
				t.Fatalf("NOOP behind the refused Get: %v", err)
			}
		})
	}
}
