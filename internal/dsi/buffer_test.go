package dsi

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestBufferFileBasics(t *testing.T) {
	b := NewBufferFile([]byte("hello"))
	if n, _ := b.Size(); n != 5 {
		t.Fatalf("size %d", n)
	}
	got := make([]byte, 5)
	if _, err := b.ReadAt(got, 0); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("%q", got)
	}
	// Read past EOF.
	if _, err := b.ReadAt(got, 100); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	// Short read at tail returns EOF with partial data.
	tail := make([]byte, 10)
	n, err := b.ReadAt(tail, 3)
	if n != 2 || err != io.EOF {
		t.Fatalf("tail read n=%d err=%v", n, err)
	}
	// Close is a no-op; Bytes copies.
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	cp := b.Bytes()
	cp[0] = 'X'
	if b.Bytes()[0] != 'h' {
		t.Fatal("Bytes did not copy")
	}
}

func TestBufferFileGrowth(t *testing.T) {
	b := NewBufferFile(nil)
	// Sequential block extension must stay cheap and correct (this is the
	// MODE E receive pattern).
	block := bytes.Repeat([]byte("g"), 1024)
	for i := 0; i < 1000; i++ {
		if _, err := b.WriteAt(block, int64(i*1024)); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := b.Size(); n != 1024*1000 {
		t.Fatalf("size %d", n)
	}
	// Sparse write with re-slice within capacity keeps holes zeroed.
	b2 := NewBufferFile(nil)
	b2.WriteAt([]byte("x"), 100)
	b2.WriteAt([]byte("y"), 10)
	data := b2.Bytes()
	if data[100] != 'x' || data[10] != 'y' || data[50] != 0 {
		t.Fatal("sparse content wrong")
	}
}

func TestBufferFilePropertyRandomWrites(t *testing.T) {
	f := func(writes []struct {
		Off  uint16
		Data []byte
	}) bool {
		b := NewBufferFile(nil)
		ref := map[int64]byte{}
		var max int64
		for _, w := range writes {
			if len(w.Data) == 0 {
				continue
			}
			off := int64(w.Off)
			if _, err := b.WriteAt(w.Data, off); err != nil {
				return false
			}
			for i, d := range w.Data {
				ref[off+int64(i)] = d
			}
			if end := off + int64(len(w.Data)); end > max {
				max = end
			}
		}
		if n, _ := b.Size(); n != max {
			return false
		}
		data := b.Bytes()
		for off, want := range ref {
			if data[off] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultStorageDirect(t *testing.T) {
	mem := NewMemStorage()
	mem.AddUser("u")
	fs := NewFaultStorage(mem)

	// Unarmed: writes pass through.
	f, err := fs.Create("u", "/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("ok"), 0); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if fs.Trips() != 0 {
		t.Fatal("unarmed fault tripped")
	}

	// Armed: next opened file fails past the threshold, exactly once
	// counted.
	fs.Arm(4)
	g, err := fs.Open("u", "/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.WriteAt([]byte("1234"), 0); err != nil {
		t.Fatal(err) // at threshold, still fine
	}
	if _, err := g.WriteAt([]byte("x"), 4); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("want injected fault, got %v", err)
	}
	if _, err := g.WriteAt([]byte("y"), 5); !errors.Is(err, ErrInjectedFault) {
		t.Fatal("fault should persist on the tripped file")
	}
	if fs.Trips() != 1 {
		t.Fatalf("trips %d", fs.Trips())
	}
	// The next file is clean (one-shot arming).
	h, _ := fs.Create("u", "/b")
	if _, err := h.WriteAt(bytes.Repeat([]byte("z"), 100), 0); err != nil {
		t.Fatal(err)
	}
	h.Close()
}

func TestWriteAllReadAllHelpers(t *testing.T) {
	mem := NewMemStorage()
	mem.AddUser("u")
	f, _ := mem.Create("u", "/h")
	if err := WriteAll(f, []byte("helper")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "helper" {
		t.Fatalf("%q", got)
	}
	// Empty file.
	e, _ := mem.Create("u", "/empty")
	got, err = ReadAll(e)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty: %q %v", got, err)
	}
}

// TestInMemoryFilesRefuseHostileOffsets: a BufferFile and a MemStorage file
// refuse a negative offset, as os.File does, and a write that would grow
// them past maxMemBytes, without allocating for it; a size hint past the
// bound is ignored. A refused write leaves the file as it was.
func TestInMemoryFilesRefuseHostileOffsets(t *testing.T) {
	mem := NewMemStorage()
	mem.AddUser("alice")
	memFile, err := mem.Create("alice", "/f")
	if err != nil {
		t.Fatal(err)
	}
	for name, f := range map[string]File{"buffer": NewBufferFile(nil), "mem": memFile} {
		t.Run(name, func(t *testing.T) {
			if _, err := f.WriteAt([]byte("ok"), 0); err != nil {
				t.Fatal(err)
			}
			for _, w := range []struct {
				off int64
				n   int
				err error
			}{
				{-1, 2, errNegativeOffset},
				{-1 << 63, 2, errNegativeOffset},
				{maxMemBytes, 1, errTooLarge},
				{maxMemBytes - 1, 2, errTooLarge},
				{1<<63 - 1, 2, errTooLarge},
			} {
				if n, err := f.WriteAt(make([]byte, w.n), w.off); n != 0 || !errors.Is(err, w.err) {
					t.Errorf("WriteAt(%d bytes, %d) = %d, %v; want 0, %v", w.n, w.off, n, err, w.err)
				}
			}
			if _, err := f.ReadAt(make([]byte, 1), -1); !errors.Is(err, errNegativeOffset) {
				t.Errorf("ReadAt at -1: %v", err)
			}
			f.(interface{ Preallocate(int64) }).Preallocate(1 << 62)
			if got, err := ReadAll(f); err != nil || string(got) != "ok" {
				t.Fatalf("after the refusals the file holds %q, %v; want %q", got, err, "ok")
			}
		})
	}
}
