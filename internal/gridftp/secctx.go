package gridftp

import (
	"crypto/hmac"
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
// HMAC-framed integrity layer keyed from the authenticated handshake; both
// preserve DCAU's authentication guarantee while avoiding bulk encryption
// (which the paper notes costs an order of magnitude on fast links, §II.C).
//
// Neither end gets a conn back — so neither hands a byte to the layers above
// — before it has verified the peer's chain and identity. In TLS 1.3 the
// connector's handshake ends with its own Finished, before the listener has
// judged its certificate: a connector that sends does so to a receiver it has
// authenticated, and one the listener goes on to refuse finds the connection
// closed at its first read or a later write.
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
	// A channel that steps down runs its handshake over a recordConn, so the
	// tls.Conn has read nothing of what follows the handshake on the wire.
	transport := conn
	if prot != ProtPrivate {
		transport = &recordConn{Conn: conn}
	}
	var tc *tls.Conn
	if isListener {
		tc = tls.Server(transport, ctx.tlsConfig(true))
	} else {
		tc = tls.Client(transport, ctx.tlsConfig(false))
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
	case ProtClear:
		return conn, nil
	case ProtSafe:
		return stepDownSafe(tc, conn, isListener)
	default:
		return nil, fmt.Errorf("gridftp: unknown PROT level %c", prot)
	}
}

// recordConn is the transport under the DCAU handshake of a channel that
// steps down (PROT C and S). A tls.Conn keeps whatever its transport hands it
// beyond the record it asked for, and on such a channel what follows the
// handshake is not TLS: the sender's first block travels right behind its
// Finished, often in the same segment. So Read follows the record framing —
// the 5-byte header, then the length it announces — and never returns a byte
// past the end of the record it is in; it holds no data of its own. The
// handshake reads whole records and only the ones it needs, so when it
// returns, every byte after its last record is still in the conn below. That
// makes stepping down a matter of dropping the tls.Conn: nothing is sent or
// awaited to quiesce it.
//
// The lengths come from a peer that is not authenticated yet. They are only
// ever used to bound a read; judging the records stays with crypto/tls.
type recordConn struct {
	net.Conn
	hdr  [5]byte
	have int // bytes of the next record's header read so far
	body int // bytes of the current record's body still to come
}

func (c *recordConn) Read(p []byte) (int, error) {
	limit := c.body
	if limit == 0 {
		limit = len(c.hdr) - c.have
	}
	if len(p) > limit {
		p = p[:limit]
	}
	n, err := c.Conn.Read(p)
	if c.body > 0 {
		c.body -= n
		return n, err
	}
	c.have += copy(c.hdr[c.have:], p[:n])
	if c.have == len(c.hdr) {
		c.have, c.body = 0, int(binary.BigEndian.Uint16(c.hdr[3:]))
	}
	return n, err
}

// integrityKeyLabel names the PROT S keys among the handshake's exported
// keying material (RFC 5705, RFC 8446 §7.5).
const integrityKeyLabel = "EXPERIMENTAL gridftp.dev/instant PROT S"

// stepDownSafe continues on the raw connection under the integrity layer.
// Both ends derive its keys from the handshake they have just authenticated —
// nothing is sent — and each direction has its own half: the first 32 bytes
// key connector→listener, the last 32 listener→connector, so a frame sent
// back to its sender does not verify.
func stepDownSafe(tc *tls.Conn, raw net.Conn, isListener bool) (net.Conn, error) {
	cs := tc.ConnectionState()
	keys, err := cs.ExportKeyingMaterial(integrityKeyLabel, nil, 2*integrityKeyLen)
	if err != nil {
		return nil, fmt.Errorf("gridftp: step-down keys: %w", err)
	}
	writeKey, readKey := keys[:integrityKeyLen], keys[integrityKeyLen:]
	if isListener {
		writeKey, readKey = readKey, writeKey
	}
	return newIntegrityConn(raw, writeKey, readKey), nil
}

// integrityConn provides integrity-only protection (PROT S): payload
// frames carry an HMAC-SHA256 tag under a per-direction key and sequence
// number, detecting tampering, truncation, reordering and reflection without
// encrypting. Each
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

// newIntegrityConn frames conn, writing under writeKey and verifying under
// readKey: the peer's the other way round.
func newIntegrityConn(conn net.Conn, writeKey, readKey []byte) *integrityConn {
	c := &integrityConn{Conn: conn}
	c.vw, _ = conn.(buffersWriter)
	c.tcp, _ = conn.(*net.TCPConn)
	c.w.mac, c.r.mac = hmac.New(sha256.New, writeKey), hmac.New(sha256.New, readKey)
	return c
}

const integrityKeyLen = 32
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
