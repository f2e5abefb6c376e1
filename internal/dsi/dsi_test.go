package dsi

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"
)

// storageUnderTest builds each backend behind the common interface.
func storageUnderTest(t *testing.T) map[string]Storage {
	t.Helper()
	mem := NewMemStorage()
	mem.AddUser("alice")
	posix, err := NewPosixStorage(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := posix.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	memForArch := NewMemStorage()
	memForArch.AddUser("alice")
	arch := NewArchivalStorage(memForArch, time.Millisecond, time.Minute)
	return map[string]Storage{"mem": mem, "posix": posix, "archival": arch}
}

func TestStorageConformance(t *testing.T) {
	for name, s := range storageUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			// Create / read back.
			f, err := s.Create("alice", "/data.bin")
			if err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte("grid"), 1000)
			if err := WriteAll(f, payload); err != nil {
				t.Fatal(err)
			}
			f.Close()

			g, err := s.Open("alice", "/data.bin")
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReadAll(g)
			if err != nil {
				t.Fatal(err)
			}
			g.Close()
			if !bytes.Equal(got, payload) {
				t.Fatal("read-back mismatch")
			}

			// Stat.
			fi, err := s.Stat("alice", "/data.bin")
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size != int64(len(payload)) || fi.IsDir {
				t.Fatalf("stat %+v", fi)
			}

			// Mkdir / List / sorted.
			if err := s.Mkdir("alice", "/sub"); err != nil {
				t.Fatal(err)
			}
			f2, _ := s.Create("alice", "/sub/a.txt")
			WriteAll(f2, []byte("x"))
			f2.Close()
			infos, err := s.List("alice", "/")
			if err != nil {
				t.Fatal(err)
			}
			if len(infos) != 2 || infos[0].Name != "data.bin" || infos[1].Name != "sub" {
				t.Fatalf("list %v", infos)
			}

			// Rename.
			if err := s.Rename("alice", "/data.bin", "/renamed.bin"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Stat("alice", "/data.bin"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("old name still exists: %v", err)
			}
			if _, err := s.Stat("alice", "/renamed.bin"); err != nil {
				t.Fatal(err)
			}

			// Remove non-empty dir refused, then empty succeeds.
			if err := s.Remove("alice", "/sub"); !errors.Is(err, ErrNotEmpty) {
				t.Fatalf("remove non-empty dir: %v", err)
			}
			if err := s.Remove("alice", "/sub/a.txt"); err != nil {
				t.Fatal(err)
			}
			if err := s.Remove("alice", "/sub"); err != nil {
				t.Fatal(err)
			}

			// Error cases.
			if _, err := s.Open("alice", "/ghost"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("open missing: %v", err)
			}
			if _, err := s.Open("bob", "/renamed.bin"); !errors.Is(err, ErrNoUser) {
				t.Fatalf("unknown user: %v", err)
			}
			if _, err := s.Open("alice", "/../../etc/passwd"); err == nil {
				t.Fatal("path escape allowed")
			}
		})
	}
}

func TestSparseWriteAt(t *testing.T) {
	for name, s := range storageUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			f, err := s.Create("alice", "/sparse")
			if err != nil {
				t.Fatal(err)
			}
			// Write out of order, as parallel MODE E streams do.
			if _, err := f.WriteAt([]byte("tail"), 100); err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt([]byte("head"), 0); err != nil {
				t.Fatal(err)
			}
			size, _ := f.Size()
			if size != 104 {
				t.Fatalf("size %d want 104", size)
			}
			got, err := ReadAll(f)
			if err != nil {
				t.Fatal(err)
			}
			if string(got[:4]) != "head" || string(got[100:]) != "tail" {
				t.Fatal("sparse content wrong")
			}
			for _, b := range got[4:100] {
				if b != 0 {
					t.Fatal("hole not zero-filled")
				}
			}
			f.Close()
		})
	}
}

func TestUserIsolation(t *testing.T) {
	mem := NewMemStorage()
	mem.AddUser("alice")
	mem.AddUser("bob")
	f, _ := mem.Create("alice", "/secret")
	WriteAll(f, []byte("alice-only"))
	f.Close()
	if _, err := mem.Open("bob", "/secret"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("bob can see alice's file: %v", err)
	}
}

func TestPosixUserIsolationOnDisk(t *testing.T) {
	root := t.TempDir()
	s, err := NewPosixStorage(root)
	if err != nil {
		t.Fatal(err)
	}
	s.AddUser("alice")
	s.AddUser("bob")
	f, err := s.Create("alice", "/f")
	if err != nil {
		t.Fatal(err)
	}
	WriteAll(f, []byte("data"))
	f.Close()
	if _, err := s.Open("bob", "/f"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("cross-user access: %v", err)
	}
	// Escape attempts must stay inside the sandbox.
	if _, err := s.Open("bob", "/../alice/f"); !errors.Is(err, ErrNotExist) && err == nil {
		t.Fatal("sandbox escape via dotdot")
	}
	if err := s.AddUser("../evil"); err == nil {
		t.Fatal("bad username accepted")
	}
}

func TestCleanPath(t *testing.T) {
	cases := map[string]string{
		"/a/b":       "/a/b",
		"a/b":        "/a/b",
		"/a/./b":     "/a/b",
		"/a/../b":    "/b",
		"":           "/",
		"/":          "/",
		"/a//b":      "/a/b",
		"/a/b/../..": "/",
		// Rooted paths cannot escape: ".." at the root collapses to "/".
		"/..":   "/",
		"/../x": "/x",
		"../x":  "/x",
	}
	for in, want := range cases {
		if got := CleanPath(in); got != want {
			t.Errorf("CleanPath(%q)=%q want %q", in, got, want)
		}
	}
}

func TestCleanPathPropertyNeverEscapes(t *testing.T) {
	f := func(segs []string) bool {
		p := "/"
		for _, s := range segs {
			p += s + "/"
		}
		clean := CleanPath(p)
		return clean == "/" || (len(clean) > 0 && clean[0] == '/' &&
			clean != "/.." && !hasPrefix(clean, "/../"))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

func TestArchivalStageLatency(t *testing.T) {
	mem := NewMemStorage()
	mem.AddUser("alice")
	arch := NewArchivalStorage(mem, 50*time.Millisecond, time.Minute)
	f, _ := arch.Create("alice", "/cold")
	WriteAll(f, []byte("x"))
	f.Close()
	// A fresh create is resident: opening it pays no stage latency.
	start := time.Now()
	h, err := arch.Open("alice", "/cold")
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if d := time.Since(start); d > 25*time.Millisecond {
		t.Fatalf("open of a fresh create took %v, should skip stage", d)
	}
	// Expire residency manually by recreating the wrapper.
	arch2 := NewArchivalStorage(mem, 50*time.Millisecond, time.Minute)
	start = time.Now()
	g, err := arch2.Open("alice", "/cold")
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	if d := time.Since(start); d < 45*time.Millisecond {
		t.Fatalf("cold open took %v, want >= stage latency", d)
	}
	// Second open is hot.
	start = time.Now()
	g2, _ := arch2.Open("alice", "/cold")
	g2.Close()
	if d := time.Since(start); d > 25*time.Millisecond {
		t.Fatalf("hot open took %v, should skip stage", d)
	}
}

func TestMemCreateTruncates(t *testing.T) {
	mem := NewMemStorage()
	mem.AddUser("u")
	f, _ := mem.Create("u", "/f")
	WriteAll(f, []byte("long content"))
	f.Close()
	g, _ := mem.Create("u", "/f")
	WriteAll(g, []byte("x"))
	g.Close()
	h, _ := mem.Open("u", "/f")
	got, _ := ReadAll(h)
	if string(got) != "x" {
		t.Fatalf("create did not truncate: %q", got)
	}
}

func TestCreateOverDirectoryFails(t *testing.T) {
	for name, s := range storageUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Mkdir("alice", "/d"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Create("alice", "/d"); !errors.Is(err, ErrIsDir) {
				t.Fatalf("create over dir: %v", err)
			}
			if _, err := s.Open("alice", "/d"); !errors.Is(err, ErrIsDir) {
				t.Fatalf("open dir: %v", err)
			}
			if _, err := s.List("alice", "/d"); err != nil {
				t.Fatalf("list empty dir: %v", err)
			}
		})
	}
}

func TestRenameOntoExistingFails(t *testing.T) {
	for name, s := range storageUnderTest(t) {
		t.Run(name, func(t *testing.T) {
			a, _ := s.Create("alice", "/a")
			a.Close()
			b, _ := s.Create("alice", "/b")
			b.Close()
			if err := s.Rename("alice", "/a", "/b"); !errors.Is(err, ErrExist) {
				t.Fatalf("rename onto existing: %v", err)
			}
		})
	}
}
