package gsi

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"time"
)

// Credential delegation (RFC 3820 model): the receiving party generates a
// key pair locally — the private key never crosses the wire — and sends the
// public key to the delegator, who signs a proxy certificate over it and
// returns the certificate plus its chain. GridFTP performs this on the
// (already authenticated and encrypted) control channel so the server can
// authenticate data channels on the user's behalf; SSH's inability to do
// this is one of GridFTP-Lite's limitations the paper calls out (§III.B).
//
// The exchange is three halves — NewDelegationKey and AcceptBundle on the
// receiver, SignDelegation on the delegator — and how the public key and the
// bundle travel is the caller's: GridFTP carries the key in the 234 that
// answers AUTH TLS and the bundle as DELG's parameter, Delegate and
// AcceptDelegation carry them as two lines over a stream.

// NewDelegationKey is the receiver's first half: a fresh key pair, returned
// with the PKIX DER encoding of its public half, which is what crosses the
// wire.
func NewDelegationKey() (*ecdsa.PrivateKey, []byte, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	pubDER, err := x509.MarshalPKIXPublicKey(&key.PublicKey)
	if err != nil {
		return nil, nil, err
	}
	return key, pubDER, nil
}

// SignDelegation is the delegator's half: it signs a proxy of cred over the
// receiver's public key (PKIX DER) and returns the PEM bundle of that proxy
// and its full chain. The bundle carries no private key.
func SignDelegation(cred *Credential, pubDER []byte, lifetime time.Duration) ([]byte, error) {
	pub, err := x509.ParsePKIXPublicKey(pubDER)
	if err != nil {
		return nil, fmt.Errorf("gsi: delegation bad public key: %w", err)
	}
	proxyCert, err := SignProxy(cred, pub, ProxyOptions{Lifetime: lifetime})
	if err != nil {
		return nil, err
	}
	out := &Credential{
		Cert:  proxyCert,
		Chain: append([]*x509.Certificate{cred.Cert}, cred.Chain...),
	}
	return out.EncodePEM()
}

// AcceptBundle is the receiver's second half: it decodes the delegator's
// bundle and pairs it with key. The leaf must certify key's public half — a
// proxy over any other key is a certificate the receiver cannot use and must
// not be told it holds. Whether the chain is one the receiver trusts, and
// whose identity it carries, is for the caller to check against its own
// trust store (TrustStore.Verify).
func AcceptBundle(key *ecdsa.PrivateKey, bundle []byte) (*Credential, error) {
	cred, err := DecodePEM(bundle)
	if err != nil {
		return nil, err
	}
	if pub, ok := cred.Cert.PublicKey.(*ecdsa.PublicKey); !ok || !pub.Equal(&key.PublicKey) {
		return nil, errors.New("gsi: delegated proxy is not over the offered key")
	}
	cred.Key = key
	return cred, nil
}

// AcceptDelegation runs the receiving side of a delegation exchange over
// rw: generate a key, send the public key, read back the signed proxy
// certificate bundle.
func AcceptDelegation(rw io.ReadWriter) (*Credential, error) {
	key, pubDER, err := NewDelegationKey()
	if err != nil {
		return nil, err
	}
	if err := writeB64Line(rw, pubDER); err != nil {
		return nil, fmt.Errorf("gsi: delegation send key: %w", err)
	}
	bundle, err := readB64Line(rw)
	if err != nil {
		return nil, fmt.Errorf("gsi: delegation read bundle: %w", err)
	}
	return AcceptBundle(key, bundle)
}

// Delegate runs the giving side of a delegation exchange over rw: read the
// peer's public key, sign a proxy over it with cred, send back the proxy
// certificate and full chain.
func Delegate(rw io.ReadWriter, cred *Credential, lifetime time.Duration) error {
	pubDER, err := readB64Line(rw)
	if err != nil {
		return fmt.Errorf("gsi: delegation read key: %w", err)
	}
	bundle, err := SignDelegation(cred, pubDER, lifetime)
	if err != nil {
		return err
	}
	if err := writeB64Line(rw, bundle); err != nil {
		return fmt.Errorf("gsi: delegation send bundle: %w", err)
	}
	return nil
}

func writeB64Line(w io.Writer, data []byte) error {
	_, err := fmt.Fprintf(w, "%s\n", base64.StdEncoding.EncodeToString(data))
	return err
}

// readB64Line reads a base64 line byte-by-byte so it never consumes bytes
// beyond the newline: the stream is the caller's, and what follows the
// exchange on it is not this package's to buffer.
func readB64Line(r io.Reader) ([]byte, error) {
	var line []byte
	buf := make([]byte, 1)
	for {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, err
		}
		if buf[0] == '\n' {
			break
		}
		line = append(line, buf[0])
		if len(line) > 4<<20 {
			return nil, fmt.Errorf("gsi: delegation message too large")
		}
	}
	return base64.StdEncoding.DecodeString(string(line))
}
