package dsi

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// sandboxWorld is a PosixStorage over <dir>/store with users alice and bob,
// next to a directory <dir>/outside that no user may reach. alice's tree
// holds a.txt and dir/b.txt, both reading "alice".
type sandboxWorld struct {
	s       *PosixStorage
	dir     string
	alice   string // alice's sandbox on disk
	outside string
}

func newSandboxWorld(t testing.TB, dir string) *sandboxWorld {
	t.Helper()
	w := &sandboxWorld{dir: dir, outside: filepath.Join(dir, "outside")}
	var err error
	if w.s, err = NewPosixStorage(filepath.Join(dir, "store")); err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob"} {
		if err := w.s.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	w.alice = filepath.Join(dir, "store", "alice")
	for path, data := range map[string]string{
		filepath.Join(w.outside, "secret"):      "secret",
		filepath.Join(dir, "store", "bob", "f"): "bob",
		filepath.Join(w.alice, "a.txt"):         "alice",
		filepath.Join(w.alice, "dir", "b.txt"):  "alice",
	} {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return w
}

// link makes alice's name a symlink to target.
func (w *sandboxWorld) link(t testing.TB, target, name string) {
	t.Helper()
	if err := os.Symlink(target, filepath.Join(w.alice, name)); err != nil {
		t.Fatal(err)
	}
}

// untouched returns every path and file content outside alice's sandbox:
// the outside directory and bob's.
func (w *sandboxWorld) untouched(t testing.TB) string {
	t.Helper()
	var b bytes.Buffer
	for _, root := range []string{w.outside, filepath.Join(w.dir, "store", "bob")} {
		var names []string
		filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
			names = append(names, p)
			return nil
		})
		sort.Strings(names)
		for _, p := range names {
			data, _ := os.ReadFile(p)
			b.WriteString(p + "=" + string(data) + "\n")
		}
	}
	return b.String()
}

// TestPosixSandboxRefusesSymlinkEscapes is ROADMAP item 7's table: each
// escape through a symlink is refused, and nothing outside alice's sandbox
// is read, written, created or moved.
func TestPosixSandboxRefusesSymlinkEscapes(t *testing.T) {
	cases := []struct {
		name string
		try  func(t *testing.T, w *sandboxWorld) error
	}{
		{"file symlink out of the root", func(t *testing.T, w *sandboxWorld) error {
			w.link(t, filepath.Join(w.outside, "secret"), "out")
			if _, err := w.s.Stat("alice", "/out"); err == nil {
				t.Error("Stat followed the link out")
			}
			f, err := w.s.Open("alice", "/out")
			if err == nil {
				f.Close()
			}
			return err
		}},
		{"link into another user's sandbox", func(t *testing.T, w *sandboxWorld) error {
			w.link(t, filepath.Join("..", "bob"), "bob")
			if _, err := w.s.List("alice", "/bob"); err == nil {
				t.Error("List followed the link into bob's sandbox")
			}
			f, err := w.s.Open("alice", "/bob/f")
			if err == nil {
				f.Close()
			}
			return err
		}},
		{"directory link mid-path", func(t *testing.T, w *sandboxWorld) error {
			w.link(t, w.outside, "d")
			f, err := w.s.Open("alice", "/d/secret")
			if err == nil {
				f.Close()
			}
			return err
		}},
		{"Rename, Mkdir and Create through one", func(t *testing.T, w *sandboxWorld) error {
			w.link(t, w.outside, "d")
			if err := w.s.Mkdir("alice", "/d/made"); err == nil {
				t.Error("Mkdir went through the link")
			}
			if f, err := w.s.Create("alice", "/d/secret"); err == nil {
				f.Close()
				t.Error("Create went through the link")
			}
			if err := w.s.Rename("alice", "/d/secret", "/stolen"); err == nil {
				t.Error("Rename took a file from behind the link")
			}
			return w.s.Rename("alice", "/a.txt", "/d/planted")
		}},
		{"link swapped in between Stat and Open", func(t *testing.T, w *sandboxWorld) error {
			if _, err := w.s.Stat("alice", "/a.txt"); err != nil {
				t.Fatal(err)
			}
			if err := os.Remove(filepath.Join(w.alice, "a.txt")); err != nil {
				t.Fatal(err)
			}
			w.link(t, filepath.Join(w.outside, "secret"), "a.txt")
			f, err := w.s.Open("alice", "/a.txt")
			if err == nil {
				f.Close()
			}
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newSandboxWorld(t, t.TempDir())
			before := w.untouched(t)
			if err := tc.try(t, w); !errors.Is(err, ErrDenied) {
				t.Errorf("err = %v, want %v", err, ErrDenied)
			}
			if after := w.untouched(t); after != before {
				t.Errorf("outside the sandbox changed:\nbefore:\n%s\nafter:\n%s", before, after)
			}
		})
	}
}

// TestPosixSandboxFollowsLinksInside: a symlink that stays in the sandbox
// still works, relative and through a parent that loops back.
func TestPosixSandboxFollowsLinksInside(t *testing.T) {
	w := newSandboxWorld(t, t.TempDir())
	w.link(t, "dir", "in")
	w.link(t, filepath.Join("..", "a.txt"), filepath.Join("dir", "up"))
	for _, p := range []string{"/in/b.txt", "/dir/up"} {
		f, err := w.s.Open("alice", p)
		if err != nil {
			t.Fatalf("Open(%s): %v", p, err)
		}
		got, err := ReadAll(f)
		f.Close()
		if err != nil || string(got) != "alice" {
			t.Fatalf("Open(%s) read %q, %v", p, got, err)
		}
	}
	if err := w.s.Rename("alice", "/a.txt", "/in/moved"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(w.alice, "dir", "moved")); err != nil {
		t.Fatal(err)
	}
}

// FuzzPosixSandbox drives resolve and open — and the other operations —
// over a tree seeded with symlinks that stay in, leave, loop and dangle.
// Whatever the paths, nothing outside alice's sandbox changes, and a file
// she can open reads as hers.
func FuzzPosixSandbox(f *testing.F) {
	for _, p := range []string{"/a.txt", "/up/f", "/abs/secret", "/in/b.txt", "/dir/back/a.txt", "/dir/esc/f", "/loop", "/dangling", "/../bob/f", "/file"} {
		for op := byte(0); op < 6; op++ {
			f.Add(op, p, "/new")
		}
	}
	base := f.TempDir()
	f.Fuzz(func(t *testing.T, op byte, p, q string) {
		dir, err := os.MkdirTemp(base, "run")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		w := newSandboxWorld(t, dir)
		for name, target := range map[string]string{
			"up":       filepath.Join("..", "bob"),
			"abs":      w.outside,
			"in":       "dir",
			"file":     filepath.Join("dir", "b.txt"),
			"loop":     "loop",
			"dangling": "nowhere",
			"dir/back": "..",
			"dir/esc":  filepath.Join("..", "..", "bob"),
		} {
			w.link(t, target, filepath.FromSlash(name))
		}
		before := w.untouched(t)
		switch op % 6 {
		case 0:
			if g, err := w.s.Open("alice", p); err == nil {
				got, err := ReadAll(g)
				g.Close()
				if err == nil && string(got) != "alice" {
					t.Fatalf("Open(%q) read %q", p, got)
				}
			}
		case 1:
			w.s.Stat("alice", p)
			w.s.List("alice", p)
		case 2:
			if g, err := w.s.Create("alice", p); err == nil {
				WriteAll(g, []byte("alice"))
				g.Close()
			}
		case 3:
			w.s.Mkdir("alice", p)
		case 4:
			w.s.Remove("alice", p)
		case 5:
			w.s.Rename("alice", p, q)
		}
		if after := w.untouched(t); after != before {
			t.Fatalf("op %d on %q, %q changed what is outside the sandbox:\nbefore:\n%s\nafter:\n%s", op%6, p, q, before, after)
		}
	})
}
