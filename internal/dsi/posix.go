package dsi

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

// PosixStorage is a Storage backed by a real directory tree. Each user's
// sandbox is <root>/<user>, opened once as an *os.Root when the user is
// provisioned; every operation goes through that Root, so a symlink in the
// tree is followed only while it stays inside the user's own sandbox — one to
// /etc, to another user's tree, or swapped in between a Stat and an Open is
// refused. This is the privilege boundary the GridFTP server's setuid
// provides.
type PosixStorage struct {
	root string
	mu   sync.RWMutex
	// users holds each provisioned user's sandbox; others are refused.
	users map[string]*os.Root
}

// NewPosixStorage creates a store rooted at dir (created if absent).
func NewPosixStorage(dir string) (*PosixStorage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &PosixStorage{root: dir, users: make(map[string]*os.Root)}, nil
}

// AddUser provisions a user's home sandbox.
func (s *PosixStorage) AddUser(user string) error {
	if strings.ContainsAny(user, "/\\") || user == "" || user == "." || user == ".." {
		return fmt.Errorf("%w: bad username %q", ErrBadPath, user)
	}
	dir := filepath.Join(s.root, user)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.users[user] != nil {
		return nil
	}
	r, err := os.OpenRoot(dir)
	if err != nil {
		return err
	}
	s.users[user] = r
	return nil
}

// resolve maps (user, gridftp path) to the user's sandbox and the path
// within it, relative as *os.Root takes it ("." is the sandbox itself).
func (s *PosixStorage) resolve(user, p string) (*os.Root, string, error) {
	s.mu.RLock()
	r := s.users[user]
	s.mu.RUnlock()
	if r == nil {
		return nil, "", fmt.Errorf("%w: %s", ErrNoUser, user)
	}
	rel := strings.TrimPrefix(CleanPath(p), "/")
	if rel == "" {
		rel = "."
	}
	return r, filepath.FromSlash(rel), nil
}

func mapOSErr(err error, p string) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, fs.ErrNotExist):
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	case errors.Is(err, syscall.ENOTEMPTY): // before ErrExist, which it also is
		return fmt.Errorf("%w: %s", ErrNotEmpty, p)
	case errors.Is(err, fs.ErrExist):
		return fmt.Errorf("%w: %s", ErrExist, p)
	case errors.Is(err, fs.ErrPermission):
		return fmt.Errorf("%w: %s", ErrDenied, p)
	case errors.Is(err, syscall.ENOTDIR):
		return fmt.Errorf("%w: %s", ErrNotDir, p)
	case strings.Contains(err.Error(), "escapes"):
		// A symlink that leaves the sandbox: the Root's "path escapes
		// from parent", or renameIn's refusal.
		return fmt.Errorf("%w: %s leaves the sandbox", ErrDenied, p)
	default:
		return err
	}
}

// refuseRootPanic, deferred by every operation, turns a panic inside os.Root
// into a refusal: Go 1.24.0's Root panics resolving a symlink whose target is
// the Root's own directory reached through "..", a link any local account
// can plant in a sandbox.
func refuseRootPanic(p string, err *error) {
	if recover() != nil {
		*err = fmt.Errorf("%w: %s resolves to the sandbox itself through a symlink", ErrDenied, p)
	}
}

// Open implements Storage.
func (s *PosixStorage) Open(user, p string) (_ File, err error) {
	defer refuseRootPanic(p, &err)
	r, rel, err := s.resolve(user, p)
	if err != nil {
		return nil, err
	}
	f, err := r.Open(rel)
	if err != nil {
		return nil, mapOSErr(err, p)
	}
	if fi, err := f.Stat(); err != nil || fi.IsDir() {
		f.Close()
		if err != nil {
			return nil, mapOSErr(err, p)
		}
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	return &posixFile{f: f}, nil
}

// Create implements Storage.
func (s *PosixStorage) Create(user, p string) (_ File, err error) {
	defer refuseRootPanic(p, &err)
	r, rel, err := s.resolve(user, p)
	if err != nil {
		return nil, err
	}
	f, err := r.OpenFile(rel, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if errors.Is(err, syscall.EISDIR) {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	if err != nil {
		return nil, mapOSErr(err, p)
	}
	return &posixFile{f: f}, nil
}

// Stat implements Storage.
func (s *PosixStorage) Stat(user, p string) (_ FileInfo, err error) {
	defer refuseRootPanic(p, &err)
	r, rel, err := s.resolve(user, p)
	if err != nil {
		return FileInfo{}, err
	}
	fi, err := r.Stat(rel)
	if err != nil {
		return FileInfo{}, mapOSErr(err, p)
	}
	return FileInfo{Name: fi.Name(), Size: fi.Size(), ModTime: fi.ModTime(), IsDir: fi.IsDir()}, nil
}

// List implements Storage.
func (s *PosixStorage) List(user, p string) (_ []FileInfo, err error) {
	defer refuseRootPanic(p, &err)
	r, rel, err := s.resolve(user, p)
	if err != nil {
		return nil, err
	}
	d, err := r.Open(rel)
	if err != nil {
		return nil, mapOSErr(err, p)
	}
	defer d.Close()
	entries, err := d.ReadDir(-1)
	if err != nil {
		return nil, mapOSErr(err, p)
	}
	infos := make([]FileInfo, 0, len(entries))
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			continue
		}
		infos = append(infos, FileInfo{Name: e.Name(), Size: fi.Size(), ModTime: fi.ModTime(), IsDir: e.IsDir()})
	}
	sortInfos(infos)
	return infos, nil
}

// Mkdir implements Storage.
func (s *PosixStorage) Mkdir(user, p string) (err error) {
	defer refuseRootPanic(p, &err)
	r, rel, err := s.resolve(user, p)
	if err != nil {
		return err
	}
	return mapOSErr(r.Mkdir(rel, 0o755), p)
}

// Remove implements Storage.
func (s *PosixStorage) Remove(user, p string) (err error) {
	defer refuseRootPanic(p, &err)
	r, rel, err := s.resolve(user, p)
	if err != nil {
		return err
	}
	return mapOSErr(r.Remove(rel), p)
}

// Rename implements Storage, through the user's Root: see renameIn.
func (s *PosixStorage) Rename(user, from, to string) (err error) {
	defer refuseRootPanic(from, &err)
	r, fromRel, err := s.resolve(user, from)
	if err != nil {
		return err
	}
	_, toRel, err := s.resolve(user, to)
	if err != nil {
		return err
	}
	if _, err := r.Lstat(toRel); err == nil {
		return fmt.Errorf("%w: %s", ErrExist, to)
	}
	return mapOSErr(renameIn(r, filepath.Join(s.root, user), fromRel, toRel), from)
}

type posixFile struct {
	f *os.File
}

// ReadAt implements io.ReaderAt.
func (p *posixFile) ReadAt(b []byte, off int64) (int, error) { return p.f.ReadAt(b, off) }

// WriteAt implements io.WriterAt.
func (p *posixFile) WriteAt(b []byte, off int64) (int, error) { return p.f.WriteAt(b, off) }

// OSFile exposes the backing descriptor so the transfer paths can hand it
// to the kernel directly (sendfile/splice) instead of copying through a
// user-space buffer.
func (p *posixFile) OSFile() *os.File { return p.f }

// Preallocate extends the file to size bytes up front (best-effort), so
// out-of-order MODE E blocks land in already-allocated extents.
func (p *posixFile) Preallocate(size int64) {
	if size <= 0 {
		return
	}
	if fi, err := p.f.Stat(); err != nil || fi.Size() >= size {
		return
	}
	p.f.Truncate(size)
}

// Size implements File.
func (p *posixFile) Size() (int64, error) {
	fi, err := p.f.Stat()
	if err != nil {
		return 0, err
	}
	return fi.Size(), nil
}

// Close implements io.Closer.
func (p *posixFile) Close() error { return p.f.Close() }
