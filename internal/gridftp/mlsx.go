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
	// Type is the Type fact in lower case: "file", "dir", "cdir" and "pdir"
	// (the listed directory itself and its parent), or a server's own.
	Type string
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
			e.Type = strings.ToLower(v)
			e.IsDir = e.Type == "dir"
		case "size":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n < 0 {
				// The size is untrusted remote input that flows straight
				// into transfer planning (Walk) and progress math; a
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

// errListOverData is an MLSC declined: this directory is to be listed with
// MLSD.
var errListOverData = errors.New("gridftp: listing not available on the control channel")

// mlscLines reads an MLSC reply's fact lines out of expect's return. The
// listing costs one round trip and leaves the session's data channels, passive
// address and third-party wiring alone. Sending the verb is the probe, as for
// SITE TRACE: a server without it answers 500 or 502 at once, which is
// remembered for the session. 504 is a server that has it declining this one
// listing as too large for a reply.
func (c *Client) mlscLines(r ftp.Reply, err error) ([]string, error) {
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

// parseListing parses a directory's fact lines. The entries for the directory
// itself and for its parent, which MLSD servers other than this one send
// (Type=cdir, Type=pdir), are not among its children.
func parseListing(lines []string) ([]MlsxEntry, error) {
	out := make([]MlsxEntry, 0, len(lines))
	for _, line := range lines {
		e, err := ParseMlsxLine(line)
		if err != nil {
			return nil, err
		}
		if e.Type != "cdir" && e.Type != "pdir" {
			out = append(out, e)
		}
	}
	return out, nil
}

// WalkEntry is one regular file found by a walk: its slash-joined path
// relative to the walk root, and its size as reported by the MLSx Size fact —
// so callers planning transfers need no per-file SIZE round trip afterwards.
type WalkEntry struct {
	Rel  string
	Size int64
}

// What a walk will take from a server. Listings are remote input, and what
// is found goes into source and destination paths: a server that lists a
// directory inside itself, or without end, fails the walk, not the caller's
// memory.
const (
	// maxWalkDepth is how many directories deep below its root a walk goes.
	maxWalkDepth = 64
	// maxWalkEntries is how many files and directories a walk returns.
	maxWalkEntries = 1 << 20
)

// A flight is commands written back to back before any of their replies is
// read. The server answers each as it reads it and the client is not reading
// yet, so a flight must be small enough to be written whatever the server
// does: capped well inside a socket buffer, counting the paths it carries.
const (
	maxFlightCommands = 32
	maxFlightBytes    = 16 << 10
)

// flightLen is how many of the paths, from the first, one flight carries.
func flightLen(paths []string) int {
	n, size := 0, 0
	for n < len(paths) && n < maxFlightCommands {
		size += len("MLSC \r\n") + len(paths[n])
		if n > 0 && size > maxFlightBytes {
			break
		}
		n++
	}
	return n
}

// plainName reports whether a listed name is one path element: joined to the
// directory it was listed in, it names something in that directory and
// nothing else. A walk takes no other name from a listing.
func plainName(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.ContainsAny(name, "/\x00")
}

// Walk is a recursive listing of one path: what it is, every regular file
// under it, and every directory below it. StartWalk returns it with the path
// itself examined; Finish lists what lies deeper.
type Walk struct {
	// IsDir reports whether the path is a directory. When it is not, Files
	// is that one file, with Rel "".
	IsDir bool
	// Files are the regular files found, in listing order.
	Files []WalkEntry
	// Dirs are the directories found below the path, relative to it, every
	// one after its parent. The path itself is not among them.
	Dirs []string

	c    *Client
	root string
	// level holds the directories found and not yet listed: all of one
	// depth, the one Finish lists next.
	level []string
	depth int
	// budget is how many more entries the walk takes: maxWalkEntries at its
	// start.
	budget int
}

// StartWalk is a walk's first flight: MLST for the path and, without waiting
// to hear that it is a directory, the MLSC that lists it. Both are written
// behind whatever the session owes, so one read sequence brings back the owed
// replies, the facts and the listing. A path that is a file refuses the MLSC,
// which is read and dropped. A refusal among the owed replies, or of the
// MLST, is returned once every reply of the flight has been read.
func (c *Client) StartWalk(path string) (*Walk, error) {
	if err := c.send("MLST", path); err != nil {
		return nil, err
	}
	speculative := !c.noMLSC
	if speculative {
		if err := c.send("MLSC", path); err != nil {
			return nil, err
		}
	}
	stat, err := c.expect(ftp.CodeFileActionOK)
	if stat.Code == 0 {
		return nil, err // the channel failed: there is no second reply to read
	}
	lines, listErr := []string(nil), errListOverData
	if speculative {
		lines, listErr = c.mlscLines(c.expect(ftp.CodeFileActionOK))
	}
	if err != nil {
		return nil, err
	}
	line, err := mlstLine(stat)
	if err != nil {
		return nil, err
	}
	entry, err := ParseMlsxLine(line)
	if err != nil {
		return nil, err
	}
	w := &Walk{c: c, root: strings.TrimSuffix(path, "/"), IsDir: entry.IsDir, budget: maxWalkEntries}
	if !entry.IsDir {
		w.Files = []WalkEntry{{Size: entry.Size}}
		return w, nil
	}
	if errors.Is(listErr, errListOverData) {
		lines, listErr = c.List(path)
	}
	if listErr != nil {
		return nil, listErr
	}
	return w, w.add("", lines)
}

// full is the server path of a directory of the walk.
func (w *Walk) full(rel string) string {
	switch {
	case rel != "":
		return w.root + "/" + rel
	case w.root == "":
		return "/"
	}
	return w.root
}

// add takes the listing of dir, one of the walk's directories, into the walk:
// files are found, directories are found and queued for the next level.
func (w *Walk) add(dir string, lines []string) error {
	entries, err := parseListing(lines)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !plainName(e.Name) {
			return fmt.Errorf("gridftp: walk: the listing of %s names %q, which is not a file name", w.full(dir), e.Name)
		}
		if w.budget == 0 {
			return fmt.Errorf("gridftp: walk: more than %d entries under %s; stopped in %s", len(w.Files)+len(w.Dirs), w.full(""), w.full(dir))
		}
		w.budget--
		rel := e.Name
		if dir != "" {
			rel = dir + "/" + e.Name
		}
		if !e.IsDir {
			w.Files = append(w.Files, WalkEntry{Rel: rel, Size: e.Size})
			continue
		}
		if w.depth == maxWalkDepth {
			return fmt.Errorf("gridftp: walk: %s is more than %d directories below %s", w.full(rel), maxWalkDepth, w.full(""))
		}
		w.Dirs = append(w.Dirs, rel)
		w.level = append(w.level, rel)
	}
	return nil
}

// Finish lists what StartWalk found directories for, one tree level at a
// time: the MLSCs of a level go out as flights (see flightLen) and their
// replies are read in order, so a tree costs a round trip per level, not per
// directory. A directory the server will not list over the control channel —
// every one, on a server without MLSC — is listed with MLSD once the flight's
// replies are in. The first refusal fails the walk, after the replies behind
// it have been read.
func (w *Walk) Finish() error {
	for len(w.level) > 0 {
		level := w.level
		w.level = nil
		w.depth++
		for len(level) > 0 {
			n := flightLen(level)
			if err := w.listFlight(level[:n]); err != nil {
				return err
			}
			level = level[n:]
		}
	}
	return nil
}

func (w *Walk) listFlight(dirs []string) error {
	c := w.c
	written := 0
	if !c.noMLSC {
		for _, d := range dirs {
			if err := c.send("MLSC", w.full(d)); err != nil {
				return err
			}
			written++
		}
	}
	listings := make([][]string, len(dirs))
	errs := make([]error, len(dirs))
	for i := range dirs {
		errs[i] = errListOverData
		if i < written {
			r, err := c.expect(ftp.CodeFileActionOK)
			if r.Code == 0 {
				return err // the channel failed
			}
			listings[i], errs[i] = c.mlscLines(r, err)
		}
	}
	for i, d := range dirs {
		if errors.Is(errs[i], errListOverData) {
			listings[i], errs[i] = c.List(w.full(d))
		}
		if errs[i] != nil {
			return errs[i]
		}
		if err := w.add(d, listings[i]); err != nil {
			return err
		}
	}
	return nil
}
