package gsi

// SigningPolicy restricts which subject DNs a CA may sign, mirroring the
// Globus *.signing_policy EACL files installed next to trusted CA
// certificates. A CA with no registered policy may sign anything (the
// server's *default* CA certificates are expected to be protected by
// policies; DCSC-supplied CAs explicitly are not — §V.A).
type SigningPolicy struct {
	// CA is the DN of the CA the policy applies to.
	CA DN
	// Subjects are the DN patterns the CA may sign ('*' suffix wildcard).
	Subjects []string
}

// Allows reports whether the policy permits the CA to have signed subject.
func (p *SigningPolicy) Allows(subject DN) bool {
	for _, pat := range p.Subjects {
		if subject.Matches(pat) {
			return true
		}
	}
	return false
}
