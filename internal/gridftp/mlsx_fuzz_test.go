package gridftp

import (
	"path"
	"strings"
	"testing"
)

// FuzzParseMlsxLine throws arbitrary fact lines at the MLSD/MLST parser.
// Fact lines are untrusted remote input — any server a client lists can
// emit them — and the parsed entries flow directly into transfer
// planning (a walk sizes every file from the Size fact, recursion
// follows every IsDir). The parser must never panic, must never accept
// an entry without a name or Type fact, and must never hand planning a
// negative size; and a parsed name that the walk's name rule lets through
// never changes directory: joined to the directory it was listed in, it names
// something in that directory, under that name.
func FuzzParseMlsxLine(f *testing.F) {
	f.Add("Type=file;Size=1048576;Modify=20120131123001; data.bin")
	f.Add("Type=dir;Modify=20120131123001; subdir")
	f.Add("type=FILE;size=0; empty")
	f.Add("Type=file;Size=-5; evil")
	f.Add("Type=file;Size=999999999999999999999999; huge")
	f.Add("Size=10; no-type")
	f.Add("Type=file;Size=1; name with spaces")
	f.Add("Type=file;;=;Size=2;junk; x")
	f.Add("")
	f.Add(" ")
	f.Add("Type=file;Size=1;")
	f.Add("Type=file;Size=1; \x00\xff")
	// An MLSC reply as ReadReply hands it over — "250-Listing /d", the fact
	// lines with their leading space stripped, "250 End": the two framing
	// lines are not entries, and a fact line that kept its space has no facts.
	f.Add("Listing /dir")
	f.Add("Type=file;Size=42;Modify=20120131123001; in a 250 reply.bin")
	f.Add(" Type=dir;Size=0;Modify=20120131123001; sub")
	f.Add("End")
	// Names that would steer a walk: each parses, and none is a plain name.
	f.Add("Type=file;Size=1; ..")
	f.Add("Type=dir;Size=0; .")
	f.Add("Type=file;Size=1; a/../../b")
	f.Add("Type=file;Size=1; /etc/passwd")
	f.Add("Type=file;Size=1; sub/")
	f.Add("Type=file;Size=1; nul\x00byte")
	f.Add("Type=cdir;Size=0; /listed/dir")
	f.Add("Type=pdir;Size=0; ..")

	f.Fuzz(func(t *testing.T, line string) {
		e, err := ParseMlsxLine(line)
		if err != nil {
			return
		}
		if e.Name == "" {
			t.Fatalf("accepted entry with empty name from %q", line)
		}
		if e.Size < 0 {
			t.Fatalf("accepted negative size %d from %q", e.Size, line)
		}
		// Accepted lines must round-trip through the fact grammar the
		// parser itself defines: facts, one space, name.
		if !strings.Contains(line, " ") {
			t.Fatalf("accepted line without fact/name separator: %q", line)
		}
		if e.IsDir != (e.Type == "dir") || e.Type != strings.ToLower(e.Type) {
			t.Fatalf("Type %q, IsDir %v from %q", e.Type, e.IsDir, line)
		}
		if plainName(e.Name) {
			const listed = "/walk/root/sub"
			joined := path.Clean(listed + "/" + e.Name)
			if path.Dir(joined) != listed || path.Base(joined) != e.Name || strings.ContainsRune(e.Name, 0) {
				t.Fatalf("the name %q from %q passes the walk's rule and lands at %q, outside %s", e.Name, line, joined, listed)
			}
		}
	})
}
