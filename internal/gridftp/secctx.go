package gridftp

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"sync"
	"time"

	"gridftp.dev/instant/internal/gsi"
)

// DCAUMode is the data channel authentication mode (RFC 2228 / GridFTP).
type DCAUMode byte

const (
	// DCAUNone disables data channel authentication entirely.
	DCAUNone DCAUMode = 'N'
	// DCAUSelf requires the peer to hold the session user's credential
	// (the GridFTP default for third-party transfers).
	DCAUSelf DCAUMode = 'A'
	// DCAUSubject requires a particular peer subject (unimplemented
	// subject pinning is treated as DCAUSelf plus a subject check).
	DCAUSubject DCAUMode = 'S'
)

// ProtLevel is the data channel protection level (PROT command).
type ProtLevel byte

const (
	// ProtClear: authenticate (per DCAU) then transfer in cleartext.
	ProtClear ProtLevel = 'C'
	// ProtSafe: integrity protection (HMAC framing) without encryption.
	ProtSafe ProtLevel = 'S'
	// ProtPrivate: full TLS encryption and integrity.
	ProtPrivate ProtLevel = 'P'
)

// SecurityContext is the security configuration applied to data channels:
// the credential to present and the trust used to validate the peer. DCSC
// (§V of the paper) swaps this context out per-session without touching
// the control channel login.
type SecurityContext struct {
	// Cred is presented on data channel handshakes.
	Cred *gsi.Credential
	// Trust validates the remote party. Per §V.A it combines the server's
	// default CA certificates (and their signing policies) with any
	// self-signed certificates delivered in a DCSC P command.
	Trust *gsi.TrustStore
	// ExpectIdentity, when non-empty, additionally pins the peer's GSI
	// identity (DCAU's mutual-validation of the *user's* credential).
	ExpectIdentity gsi.DN

	// cfgOnce memoizes the TLS configs so the N parallel data connections
	// of one transfer share a config (and crypto/tls's internal per-config
	// caches) instead of rebuilding certificate chains per connection.
	cfgOnce   sync.Once
	serverCfg *tls.Config
	clientCfg *tls.Config
}

// tlsConfig returns the memoized TLS config for the requested side.
func (ctx *SecurityContext) tlsConfig(isListener bool) *tls.Config {
	ctx.cfgOnce.Do(func() {
		ctx.serverCfg = gsi.ServerTLSConfig(ctx.Cred, ctx.Trust)
		ctx.clientCfg = gsi.ClientTLSConfig(ctx.Cred, ctx.Trust)
	})
	if isListener {
		return ctx.serverCfg
	}
	return ctx.clientCfg
}

// DecodeDCSCBlob parses the base64 payload of "DCSC P <blob>": a PEM
// bundle of certificate, private key, and optional extra certificates.
// It returns the credential plus a trust overlay built per §V.A: default
// roots plus all self-signed certificates from the blob.
func DecodeDCSCBlob(blob string, defaults *gsi.TrustStore) (*SecurityContext, error) {
	raw, err := base64.StdEncoding.DecodeString(blob)
	if err != nil {
		return nil, fmt.Errorf("gridftp: DCSC blob is not valid base64: %w", err)
	}
	cred, err := gsi.DecodePEM(raw)
	if err != nil {
		return nil, fmt.Errorf("gridftp: DCSC blob: %w", err)
	}
	if cred.Key == nil {
		return nil, errors.New("gridftp: DCSC blob missing private key")
	}
	trust := defaults.Clone()
	for _, cert := range cred.FullChain() {
		// Self-signed certificates in (1) and (3) become trust anchors;
		// no signing policy is required for them (§V.A).
		if gsi.CertDN(cert) == gsi.IssuerDN(cert) {
			if cert.IsCA {
				if err := trust.AddCA(cert); err != nil {
					return nil, err
				}
			} else {
				trust.AddDirect(cert)
			}
		}
	}
	return &SecurityContext{Cred: cred, Trust: trust}, nil
}

// EncodeDCSCBlob serializes a credential into the DCSC P payload form.
func EncodeDCSCBlob(cred *gsi.Credential) (string, error) {
	pemData, err := cred.EncodePEM()
	if err != nil {
		return "", err
	}
	return base64.StdEncoding.EncodeToString(pemData), nil
}

// secureData authenticates and protects one data connection according to
// dcau/prot. The listening side acts as TLS server. After authentication,
// ProtClear steps down to the raw connection and ProtSafe steps down to an
// HMAC-framed integrity layer keyed over the authenticated channel; both
// preserve DCAU's authentication guarantee while avoiding bulk encryption
// (which the paper notes costs an order of magnitude on fast links, §II.C).
func secureData(conn net.Conn, ctx *SecurityContext, dcau DCAUMode, prot ProtLevel, isListener bool) (net.Conn, error) {
	if dcau == DCAUNone {
		if prot != ProtClear {
			return nil, errors.New("gridftp: PROT requires DCAU")
		}
		return conn, nil
	}
	if ctx == nil || ctx.Cred == nil {
		return nil, errors.New("gridftp: data channel authentication requires a credential (delegate or DCSC first)")
	}
	var tc *tls.Conn
	if isListener {
		tc = tls.Server(conn, ctx.tlsConfig(true))
	} else {
		tc = tls.Client(conn, ctx.tlsConfig(false))
	}
	conn.SetDeadline(time.Now().Add(30 * time.Second))
	if err := tc.Handshake(); err != nil {
		return nil, fmt.Errorf("gridftp: data channel auth: %w", err)
	}
	conn.SetDeadline(time.Time{})
	id, err := gsi.PeerIdentity(tc, ctx.Trust)
	if err != nil {
		return nil, fmt.Errorf("gridftp: data channel peer: %w", err)
	}
	if ctx.ExpectIdentity != "" && id.Identity != ctx.ExpectIdentity {
		return nil, fmt.Errorf("gridftp: data channel peer identity %q, want %q", id.Identity, ctx.ExpectIdentity)
	}
	switch prot {
	case ProtPrivate:
		return tc, nil
	case ProtClear, ProtSafe:
		return stepDown(tc, conn, prot, isListener)
	default:
		return nil, fmt.Errorf("gridftp: unknown PROT level %c", prot)
	}
}

// stepDown finishes the authenticated TLS exchange and continues on the
// raw connection, optionally inserting an integrity layer. The exchange is
// over-read-proof in both data directions:
//
//   - the listener TLS-writes the integrity key and then raw-reads a
//     one-byte ack, so its tls.Conn performs no reads after the handshake
//     and cannot buffer raw-phase bytes;
//   - the connector TLS-reads the key — at which point the listener has
//     sent nothing further, so there is nothing to over-read — and then
//     raw-writes the ack;
//   - whichever side sends application data does so only after the ack,
//     by which time both tls.Conn objects are quiesced.
func stepDown(tc *tls.Conn, raw net.Conn, prot ProtLevel, isListener bool) (net.Conn, error) {
	var key [32]byte
	var ack [1]byte
	if isListener {
		if prot == ProtSafe {
			if _, err := rand.Read(key[:]); err != nil {
				return nil, err
			}
		}
		if _, err := tc.Write(key[:]); err != nil {
			return nil, fmt.Errorf("gridftp: step-down send: %w", err)
		}
		if _, err := io.ReadFull(raw, ack[:]); err != nil {
			return nil, fmt.Errorf("gridftp: step-down ack: %w", err)
		}
	} else {
		if _, err := io.ReadFull(tc, key[:]); err != nil {
			return nil, fmt.Errorf("gridftp: step-down recv: %w", err)
		}
		ack[0] = 0x17
		if _, err := raw.Write(ack[:]); err != nil {
			return nil, fmt.Errorf("gridftp: step-down ack: %w", err)
		}
	}
	if prot == ProtClear {
		return raw, nil
	}
	return newIntegrityConn(raw, key), nil
}

// integrityConn provides integrity-only protection (PROT S): payload
// frames carry an HMAC-SHA256 tag with a per-direction sequence number,
// detecting tampering, truncation, and reordering without encrypting. Each
// direction keys its HMAC once and resets it per frame, and a frame goes out
// as one write: vectored where the conn below takes [header, payload, tag]
// as it stands, coalesced otherwise. The steady state allocates nothing.
type integrityConn struct {
	net.Conn
	vw  buffersWriter // non-nil: the conn takes vectored writes natively
	tcp *net.TCPConn  // non-nil: net.Buffers reaches writev

	w, r integrityHalf
	whdr [4]byte
	vecs [3][]byte // backing array for the vectored [header, payload, tag]
	wbuf []byte    // the coalesced frame, for conns without vectored writes

	rhdr    [4]byte
	rbuf    []byte // decoded-but-unread payload
	scratch []byte
}

// integrityHalf is one direction's MAC state. Its buffers are fields so that
// handing them to the hash.Hash interface does not allocate per frame.
type integrityHalf struct {
	mac  hash.Hash
	seq  uint64
	seqb [8]byte
	tag  [integrityTagLen]byte
}

// sum returns the tag of the direction's next frame; it is valid until the
// next call.
func (h *integrityHalf) sum(payload []byte) []byte {
	binary.BigEndian.PutUint64(h.seqb[:], h.seq)
	h.seq++
	h.mac.Reset()
	h.mac.Write(h.seqb[:])
	h.mac.Write(payload)
	return h.mac.Sum(h.tag[:0])
}

func newIntegrityConn(conn net.Conn, key [32]byte) *integrityConn {
	c := &integrityConn{Conn: conn}
	c.vw, _ = conn.(buffersWriter)
	c.tcp, _ = conn.(*net.TCPConn)
	c.w.mac, c.r.mac = hmac.New(sha256.New, key[:]), hmac.New(sha256.New, key[:])
	return c
}

const integrityTagLen = 32
const maxIntegrityFrame = 1 << 20

// Write implements net.Conn with [len(4)][payload][tag(32)] framing.
func (c *integrityConn) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > maxIntegrityFrame {
			n = maxIntegrityFrame
		}
		binary.BigEndian.PutUint32(c.whdr[:], uint32(n))
		c.vecs = [3][]byte{c.whdr[:], p[:n], c.w.sum(p[:n])}
		var err error
		switch {
		case c.vw != nil:
			_, err = c.vw.WriteBuffers(c.vecs[:])
		case c.tcp != nil:
			nb := net.Buffers(c.vecs[:])
			_, err = nb.WriteTo(c.tcp)
		default:
			c.wbuf = append(append(append(c.wbuf[:0], c.vecs[0]...), c.vecs[1]...), c.vecs[2]...)
			_, err = c.Conn.Write(c.wbuf)
		}
		if err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}

// Read implements net.Conn, verifying each frame's tag.
func (c *integrityConn) Read(p []byte) (int, error) {
	if len(c.rbuf) == 0 {
		if _, err := io.ReadFull(c.Conn, c.rhdr[:]); err != nil {
			return 0, err
		}
		n := binary.BigEndian.Uint32(c.rhdr[:])
		if n > maxIntegrityFrame {
			return 0, fmt.Errorf("gridftp: integrity frame too large (%d)", n)
		}
		if cap(c.scratch) < int(n)+integrityTagLen {
			c.scratch = make([]byte, n+integrityTagLen)
		}
		buf := c.scratch[:int(n)+integrityTagLen]
		if _, err := io.ReadFull(c.Conn, buf); err != nil {
			return 0, err
		}
		payload, tag := buf[:n], buf[n:]
		if !hmac.Equal(tag, c.r.sum(payload)) {
			return 0, errors.New("gridftp: data channel integrity check failed")
		}
		c.rbuf = payload
	}
	n := copy(p, c.rbuf)
	c.rbuf = c.rbuf[n:]
	return n, nil
}

// CloseWrite forwards half-close to the transport.
func (c *integrityConn) CloseWrite() error {
	if hc, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return hc.CloseWrite()
	}
	return nil
}
