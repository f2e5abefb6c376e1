// Package authz implements GridFTP authorization callouts: the dynamically
// linked hook that maps an authenticated Grid identity to the local user
// id the request executes as (§II.C of the paper). Two callouts are
// provided — the conventional gridmap file, and the GCMU callout that
// parses the username out of certificates issued by the site's own MyProxy
// Online CA, eliminating the gridmap entirely (§IV.C).
package authz

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"gridftp.dev/instant/internal/gsi"
	"gridftp.dev/instant/internal/pam"
)

// ErrNoMapping is returned when no local account can be determined.
var ErrNoMapping = errors.New("authz: no local mapping for identity")

// Callout maps a verified Grid identity to a local username.
type Callout interface {
	// Name identifies the callout in logs and errors.
	Name() string
	// Map returns the local username for the identity.
	Map(id *gsi.VerifiedIdentity) (string, error)
}

// --- Gridmap ---

// Gridmap is the conventional DN-to-username mapping file, "a frequent
// source of errors and complaints" per the paper (§IV.C). It is kept here
// both as the legacy path and as the baseline for the setup-complexity
// experiment.
type Gridmap struct {
	mu      sync.RWMutex
	entries map[gsi.DN]string
}

// NewGridmap returns an empty gridmap.
func NewGridmap() *Gridmap {
	return &Gridmap{entries: make(map[gsi.DN]string)}
}

// AddEntry maps a DN to a username.
func (g *Gridmap) AddEntry(dn gsi.DN, user string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.entries[dn] = user
}

// Len returns the number of entries.
func (g *Gridmap) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.entries)
}

// Name implements Callout.
func (g *Gridmap) Name() string { return "gridmap" }

// Map implements Callout by exact identity-DN lookup.
func (g *Gridmap) Map(id *gsi.VerifiedIdentity) (string, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	user, ok := g.entries[id.Identity]
	if !ok {
		return "", fmt.Errorf("%w: %q not in gridmap", ErrNoMapping, id.Identity)
	}
	return user, nil
}

// --- GCMU callout ---

// GCMUCallout is the paper's custom authorization callout (§IV.C): when
// the certificate was issued by the site's own MyProxy Online CA, the
// local username is parsed directly out of the certificate subject's
// final CN — no gridmap needed.
type GCMUCallout struct {
	// LocalCA is the DN of the site's MyProxy Online CA.
	LocalCA gsi.DN
	// Accounts validates that the parsed username is a real local account.
	Accounts *pam.AccountDB
}

// Name implements Callout.
func (c *GCMUCallout) Name() string { return "gcmu-authz" }

// Map implements Callout.
func (c *GCMUCallout) Map(id *gsi.VerifiedIdentity) (string, error) {
	if id.IssuerCA != c.LocalCA {
		return "", fmt.Errorf("%w: issuer %q is not the local MyProxy Online CA", ErrNoMapping, id.IssuerCA)
	}
	user := id.Identity.LastCN()
	if user == "" {
		return "", fmt.Errorf("%w: certificate subject %q has no CN", ErrNoMapping, id.Identity)
	}
	if c.Accounts != nil {
		if _, err := c.Accounts.Lookup(user); err != nil {
			return "", fmt.Errorf("%w: %q parsed from DN but not a local account", ErrNoMapping, user)
		}
	}
	return user, nil
}

// --- Chain ---

// Chain tries callouts in order, returning the first successful mapping.
// GCMU installs [GCMUCallout, Gridmap] so legacy DN mappings still work.
type Chain []Callout

// Name implements Callout.
func (c Chain) Name() string {
	names := make([]string, len(c))
	for i, co := range c {
		names[i] = co.Name()
	}
	return "chain(" + strings.Join(names, ",") + ")"
}

// Map implements Callout.
func (c Chain) Map(id *gsi.VerifiedIdentity) (string, error) {
	if len(c) == 0 {
		return "", fmt.Errorf("%w: no callouts configured", ErrNoMapping)
	}
	var errs []string
	for _, co := range c {
		user, err := co.Map(id)
		if err == nil {
			return user, nil
		}
		errs = append(errs, co.Name()+": "+err.Error())
	}
	return "", fmt.Errorf("%w (%s)", ErrNoMapping, strings.Join(errs, "; "))
}
