package gridftp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"gridftp.dev/instant/internal/ftp"
)

// MlsxEntry is one parsed MLSD/MLST fact line.
type MlsxEntry struct {
	Name  string
	Size  int64
	IsDir bool
}

// ParseMlsxLine parses a "Type=file;Size=123;Modify=...; name" fact line
// as produced by this server's MLSD/MLST.
func ParseMlsxLine(line string) (MlsxEntry, error) {
	facts, name, ok := strings.Cut(line, " ")
	if !ok || name == "" {
		return MlsxEntry{}, fmt.Errorf("gridftp: malformed MLSx line %q", line)
	}
	e := MlsxEntry{Name: name}
	sawType := false
	for _, f := range strings.Split(strings.TrimSuffix(facts, ";"), ";") {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch strings.ToLower(k) {
		case "type":
			sawType = true
			e.IsDir = strings.EqualFold(v, "dir")
		case "size":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				// The size is untrusted remote input that flows straight
				// into transfer planning (WalkEntries) and progress math; a
				// negative one must not survive parsing.
				return MlsxEntry{}, fmt.Errorf("gridftp: bad Size in %q", line)
			}
			e.Size = n
		}
	}
	if !sawType {
		return MlsxEntry{}, fmt.Errorf("gridftp: MLSx line %q missing Type fact", line)
	}
	return e, nil
}

// errListOverData is listControl declining: this directory is to be listed
// with MLSD.
var errListOverData = errors.New("gridftp: listing not available on the control channel")

// listControl lists path with MLSC: the fact lines come back in the reply,
// so the listing costs one round trip and leaves the session's data channels,
// passive address and third-party wiring alone. Sending it is the probe, as
// for SITE TRACE: a server without the verb answers 500 or 502 at once, which
// is remembered for the session. 504 is a server that has it declining this
// one listing as too large for a reply.
func (c *Client) listControl(path string) ([]string, error) {
	if c.noMLSC {
		return nil, errListOverData
	}
	r, err := c.cmdExpect("MLSC", path, ftp.CodeFileActionOK)
	switch r.Code {
	case ftp.CodeSyntaxError, ftp.CodeNotImplemented:
		c.noMLSC = true
		return nil, errListOverData
	case ftp.CodeParamNotImpl:
		return nil, errListOverData
	}
	if err != nil {
		return nil, err
	}
	if len(r.Lines) < 2 {
		return nil, fmt.Errorf("gridftp: bad MLSC reply %v", r.Lines)
	}
	return r.Lines[1 : len(r.Lines)-1], nil
}

// ListEntries lists a directory and returns the parsed entries: over the
// control channel (MLSC) where the server can, else with List (MLSD).
func (c *Client) ListEntries(path string) ([]MlsxEntry, error) {
	lines, err := c.listControl(path)
	if errors.Is(err, errListOverData) {
		lines, err = c.List(path)
	}
	if err != nil {
		return nil, err
	}
	out := make([]MlsxEntry, 0, len(lines))
	for _, line := range lines {
		e, err := ParseMlsxLine(line)
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

// StatEntry runs MLST and returns the parsed entry.
func (c *Client) StatEntry(path string) (MlsxEntry, error) {
	line, err := c.Stat(path)
	if err != nil {
		return MlsxEntry{}, err
	}
	return ParseMlsxLine(line)
}

// WalkEntry is one regular file found by WalkEntries: its slash-joined
// path relative to the walk root, and its size as reported by the MLSD
// Size fact — so callers planning transfers need no per-file SIZE round
// trip afterwards.
type WalkEntry struct {
	Rel  string
	Size int64
}

// WalkEntries lists path recursively, returning a WalkEntry (relative
// path plus size) for every regular file. Directories are traversed, not
// returned.
func (c *Client) WalkEntries(path string) ([]WalkEntry, error) {
	var files []WalkEntry
	var walk func(rel string) error
	walk = func(rel string) error {
		full := strings.TrimSuffix(path, "/")
		if rel != "" {
			full += "/" + rel
		}
		entries, err := c.ListEntries(full)
		if err != nil {
			return err
		}
		for _, e := range entries {
			childRel := e.Name
			if rel != "" {
				childRel = rel + "/" + e.Name
			}
			if e.IsDir {
				if err := walk(childRel); err != nil {
					return err
				}
			} else {
				files = append(files, WalkEntry{Rel: childRel, Size: e.Size})
			}
		}
		return nil
	}
	if err := walk(""); err != nil {
		return nil, err
	}
	return files, nil
}

// Walk lists path recursively, returning slash-joined paths relative to
// path for every regular file (directories are traversed, not returned).
func (c *Client) Walk(path string) ([]string, error) {
	entries, err := c.WalkEntries(path)
	if err != nil {
		return nil, err
	}
	files := make([]string, len(entries))
	for i, e := range entries {
		files[i] = e.Rel
	}
	return files, nil
}
