package gsi

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"fmt"
	"math/big"
	"sync"
	"time"
)

// Credential bundles a certificate, its private key, and the chain of
// intermediate/issuer certificates up to (and conventionally including)
// the root, matching the layout of a Globus proxy file.
type Credential struct {
	Cert  *x509.Certificate
	Key   *ecdsa.PrivateKey
	Chain []*x509.Certificate // issuer-first order, leaf's issuer at [0]

	// idOnce memoizes DN/Identity: both are pure functions of Cert, and
	// every data-channel setup consults Identity, so rebuilding the DN
	// string (and re-parsing it to strip proxy CNs) per connection showed
	// up in transfer profiles.
	idOnce   sync.Once
	subject  DN
	identity DN
}

func (c *Credential) resolveIdentity() {
	c.idOnce.Do(func() {
		c.subject = CertDN(c.Cert)
		d := c.subject
		for cn := d.LastCN(); isProxyCN(cn); cn = d.LastCN() {
			d = d.StripLastCN()
		}
		c.identity = d
	})
}

// DN returns the subject DN of the credential's certificate.
func (c *Credential) DN() DN { c.resolveIdentity(); return c.subject }

// Identity returns the credential's end-entity DN with any proxy CN
// markers stripped, i.e. the DN authorization decisions are made on.
func (c *Credential) Identity() DN {
	c.resolveIdentity()
	return c.identity
}

// FullChain returns the leaf followed by the chain, the order TLS expects.
func (c *Credential) FullChain() []*x509.Certificate {
	out := make([]*x509.Certificate, 0, len(c.Chain)+1)
	out = append(out, c.Cert)
	out = append(out, c.Chain...)
	return out
}

var serialMu sync.Mutex
var serialCounter = big.NewInt(time.Now().UnixNano() & 0xffffff)

func nextSerial() *big.Int {
	serialMu.Lock()
	defer serialMu.Unlock()
	serialCounter = new(big.Int).Add(serialCounter, big.NewInt(1))
	return new(big.Int).Set(serialCounter)
}

// CA is a certificate authority: a self-signed (or intermediate) CA
// credential plus issuance helpers.
type CA struct {
	Cred *Credential
}

// NewCA creates a self-signed root CA with the given subject DN.
func NewCA(subject DN, lifetime time.Duration) (*CA, error) {
	name, err := DNToName(subject)
	if err != nil {
		return nil, err
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	now := time.Now().Add(-time.Minute)
	tmpl := &x509.Certificate{
		SerialNumber:          nextSerial(),
		Subject:               name,
		NotBefore:             now,
		NotAfter:              now.Add(lifetime),
		IsCA:                  true,
		BasicConstraintsValid: true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageCRLSign | x509.KeyUsageDigitalSignature,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &CA{Cred: &Credential{Cert: cert, Key: key}}, nil
}

// DN returns the CA's subject DN.
func (ca *CA) DN() DN { return ca.Cred.DN() }

// Certificate returns the CA certificate.
func (ca *CA) Certificate() *x509.Certificate { return ca.Cred.Cert }

// IssueOptions controls end-entity issuance.
type IssueOptions struct {
	Subject  DN
	Lifetime time.Duration
	// Host marks a host (server) certificate; otherwise a user certificate.
	Host bool
	// DNSNames are SANs for host certificates.
	DNSNames []string
}

// Issue creates an end-entity certificate signed by the CA and returns the
// full credential (with the CA cert in the chain).
func (ca *CA) Issue(opts IssueOptions) (*Credential, error) {
	if opts.Lifetime <= 0 {
		return nil, errors.New("gsi: issue: non-positive lifetime")
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	cert, err := ca.sign(&key.PublicKey, opts)
	if err != nil {
		return nil, err
	}
	return &Credential{Cert: cert, Key: key, Chain: []*x509.Certificate{ca.Cred.Cert}}, nil
}

// IssueForKey signs a certificate over a caller-supplied public key — the
// online-CA path, where the subscriber generates the key locally and only
// a signing request reaches the CA.
func (ca *CA) IssueForKey(pub crypto.PublicKey, opts IssueOptions) (*x509.Certificate, error) {
	if opts.Lifetime <= 0 {
		return nil, errors.New("gsi: issue: non-positive lifetime")
	}
	return ca.sign(pub, opts)
}

func (ca *CA) sign(pub crypto.PublicKey, opts IssueOptions) (*x509.Certificate, error) {
	pkixName, err := DNToName(opts.Subject)
	if err != nil {
		return nil, err
	}
	now := time.Now().Add(-time.Minute)
	notAfter := now.Add(opts.Lifetime)
	if notAfter.After(ca.Cred.Cert.NotAfter) {
		notAfter = ca.Cred.Cert.NotAfter
	}
	eku := []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth}
	if opts.Host {
		eku = append(eku, x509.ExtKeyUsageServerAuth)
	}
	tmpl := &x509.Certificate{
		SerialNumber:          nextSerial(),
		Subject:               pkixName,
		NotBefore:             now,
		NotAfter:              notAfter,
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment,
		ExtKeyUsage:           eku,
		BasicConstraintsValid: true,
		DNSNames:              opts.DNSNames,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.Cred.Cert, pub, ca.Cred.Key)
	if err != nil {
		return nil, err
	}
	return x509.ParseCertificate(der)
}

// SelfSignedCredential creates a standalone self-signed end-entity
// credential — the "random, self-signed certificate" clients may use as a
// high-security DCSC context (§V of the paper).
func SelfSignedCredential(subject DN, lifetime time.Duration) (*Credential, error) {
	name, err := DNToName(subject)
	if err != nil {
		return nil, err
	}
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return nil, err
	}
	now := time.Now().Add(-time.Minute)
	tmpl := &x509.Certificate{
		SerialNumber:          nextSerial(),
		Subject:               name,
		NotBefore:             now,
		NotAfter:              now.Add(lifetime),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth, x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Credential{Cert: cert, Key: key}, nil
}

// --- PEM bundle encoding (proxy-file layout: cert, key, chain) ---

// EncodePEM serializes the credential as certificate, private key, then
// chain certificates, matching the Globus proxy-file layout the DCSC P
// command transports.
func (c *Credential) EncodePEM() ([]byte, error) {
	var out []byte
	out = append(out, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: c.Cert.Raw})...)
	if c.Key != nil {
		kb, err := x509.MarshalECPrivateKey(c.Key)
		if err != nil {
			return nil, err
		}
		out = append(out, pem.EncodeToMemory(&pem.Block{Type: "EC PRIVATE KEY", Bytes: kb})...)
	}
	for _, cc := range c.Chain {
		out = append(out, pem.EncodeToMemory(&pem.Block{Type: "CERTIFICATE", Bytes: cc.Raw})...)
	}
	return out, nil
}

// DecodePEM parses a credential bundle: the first certificate is the leaf,
// an optional private key may appear anywhere, remaining certificates form
// the chain (order preserved).
func DecodePEM(data []byte) (*Credential, error) {
	var cred Credential
	for {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			break
		}
		switch block.Type {
		case "CERTIFICATE":
			cert, err := x509.ParseCertificate(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("gsi: bad certificate in bundle: %w", err)
			}
			if cred.Cert == nil {
				cred.Cert = cert
			} else {
				cred.Chain = append(cred.Chain, cert)
			}
		case "EC PRIVATE KEY":
			key, err := x509.ParseECPrivateKey(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("gsi: bad private key in bundle: %w", err)
			}
			if cred.Key != nil {
				return nil, errors.New("gsi: multiple private keys in bundle")
			}
			cred.Key = key
		default:
			return nil, fmt.Errorf("gsi: unexpected PEM block %q in bundle", block.Type)
		}
	}
	if cred.Cert == nil {
		return nil, errors.New("gsi: no certificate in bundle")
	}
	return &cred, nil
}
