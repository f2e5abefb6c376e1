package dsi

import (
	"fmt"
	"path"
	"strings"
	"sync"
	"time"
)

// MemStorage is an in-memory Storage. Each user gets an isolated tree
// rooted at "/" (their sandbox); users must be provisioned with AddUser
// before use, mirroring the local-account requirement of a GridFTP server.
type MemStorage struct {
	mu    sync.RWMutex
	users map[string]*memDir
}

// NewMemStorage returns an empty in-memory store.
func NewMemStorage() *MemStorage {
	return &MemStorage{users: make(map[string]*memDir)}
}

// AddUser provisions a user's sandbox.
func (s *MemStorage) AddUser(user string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.users[user]; !ok {
		s.users[user] = newMemDir()
	}
}

type memDir struct {
	entries map[string]*memNode
	mod     time.Time
}

func newMemDir() *memDir {
	return &memDir{entries: make(map[string]*memNode), mod: time.Now()}
}

type memNode struct {
	dir  *memDir // non-nil for directories
	file *memFileData
}

type memFileData struct {
	mu   sync.RWMutex
	data []byte
	mod  time.Time
}

func (s *MemStorage) root(user string) (*memDir, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.users[user]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoUser, user)
	}
	return d, nil
}

// walk resolves the directory containing the final path element.
func (s *MemStorage) walk(user, p string) (*memDir, string, error) {
	clean := CleanPath(p)
	root, err := s.root(user)
	if err != nil {
		return nil, "", err
	}
	dirPath, base := path.Split(clean)
	cur := root
	for _, part := range strings.Split(strings.Trim(dirPath, "/"), "/") {
		if part == "" {
			continue
		}
		s.mu.RLock()
		n, ok := cur.entries[part]
		s.mu.RUnlock()
		if !ok {
			return nil, "", fmt.Errorf("%w: %s", ErrNotExist, p)
		}
		if n.dir == nil {
			return nil, "", fmt.Errorf("%w: %s", ErrNotDir, p)
		}
		cur = n.dir
	}
	return cur, base, nil
}

// Open implements Storage.
func (s *MemStorage) Open(user, p string) (File, error) {
	dir, base, err := s.walk(user, p)
	if err != nil {
		return nil, err
	}
	s.mu.RLock()
	n, ok := dir.entries[base]
	s.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if n.dir != nil {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	return &memFile{data: n.file}, nil
}

// Create implements Storage.
func (s *MemStorage) Create(user, p string) (File, error) {
	dir, base, err := s.walk(user, p)
	if err != nil {
		return nil, err
	}
	if base == "" {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := dir.entries[base]; ok {
		if n.dir != nil {
			return nil, fmt.Errorf("%w: %s", ErrIsDir, p)
		}
		n.file.mu.Lock()
		n.file.data = nil
		n.file.mod = time.Now()
		n.file.mu.Unlock()
		return &memFile{data: n.file}, nil
	}
	fd := &memFileData{mod: time.Now()}
	dir.entries[base] = &memNode{file: fd}
	dir.mod = time.Now()
	return &memFile{data: fd}, nil
}

// Stat implements Storage.
func (s *MemStorage) Stat(user, p string) (FileInfo, error) {
	clean := CleanPath(p)
	if clean == "/" {
		if _, err := s.root(user); err != nil {
			return FileInfo{}, err
		}
		return FileInfo{Name: "/", IsDir: true, ModTime: time.Now()}, nil
	}
	dir, base, err := s.walk(user, p)
	if err != nil {
		return FileInfo{}, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	n, ok := dir.entries[base]
	if !ok {
		return FileInfo{}, fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	return nodeInfo(base, n), nil
}

func nodeInfo(name string, n *memNode) FileInfo {
	if n.dir != nil {
		return FileInfo{Name: name, IsDir: true, ModTime: n.dir.mod}
	}
	n.file.mu.RLock()
	defer n.file.mu.RUnlock()
	return FileInfo{Name: name, Size: int64(len(n.file.data)), ModTime: n.file.mod}
}

// List implements Storage.
func (s *MemStorage) List(user, p string) ([]FileInfo, error) {
	clean := CleanPath(p)
	root, err := s.root(user)
	if err != nil {
		return nil, err
	}
	cur := root
	if clean != "/" {
		dir, base, err := s.walk(user, p)
		if err != nil {
			return nil, err
		}
		s.mu.RLock()
		n, ok := dir.entries[base]
		s.mu.RUnlock()
		if !ok {
			return nil, fmt.Errorf("%w: %s", ErrNotExist, p)
		}
		if n.dir == nil {
			return nil, fmt.Errorf("%w: %s", ErrNotDir, p)
		}
		cur = n.dir
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	infos := make([]FileInfo, 0, len(cur.entries))
	for name, n := range cur.entries {
		infos = append(infos, nodeInfo(name, n))
	}
	sortInfos(infos)
	return infos, nil
}

// Mkdir implements Storage.
func (s *MemStorage) Mkdir(user, p string) error {
	dir, base, err := s.walk(user, p)
	if err != nil {
		return err
	}
	if base == "" {
		return fmt.Errorf("%w: %s", ErrExist, p)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := dir.entries[base]; ok {
		return fmt.Errorf("%w: %s", ErrExist, p)
	}
	dir.entries[base] = &memNode{dir: newMemDir()}
	dir.mod = time.Now()
	return nil
}

// Remove implements Storage.
func (s *MemStorage) Remove(user, p string) error {
	dir, base, err := s.walk(user, p)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := dir.entries[base]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, p)
	}
	if n.dir != nil && len(n.dir.entries) > 0 {
		return fmt.Errorf("%w: %s", ErrNotEmpty, p)
	}
	delete(dir.entries, base)
	dir.mod = time.Now()
	return nil
}

// Rename implements Storage.
func (s *MemStorage) Rename(user, from, to string) error {
	fromDir, fromBase, err := s.walk(user, from)
	if err != nil {
		return err
	}
	toDir, toBase, err := s.walk(user, to)
	if err != nil {
		return err
	}
	if toBase == "" {
		return fmt.Errorf("%w: %s", ErrBadPath, to)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := fromDir.entries[fromBase]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, from)
	}
	if _, exists := toDir.entries[toBase]; exists {
		return fmt.Errorf("%w: %s", ErrExist, to)
	}
	delete(fromDir.entries, fromBase)
	toDir.entries[toBase] = n
	fromDir.mod = time.Now()
	toDir.mod = time.Now()
	return nil
}

// memFile adapts memFileData to the File interface.
type memFile struct {
	data   *memFileData
	closed bool
}

// ReadAt implements io.ReaderAt.
func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.data.mu.RLock()
	defer f.data.mu.RUnlock()
	return readAt(f.data.data, p, off)
}

// WriteAt implements io.WriterAt (writeAt): the file grows to at most
// maxMemBytes, 1 GiB.
func (f *memFile) WriteAt(p []byte, off int64) (n int, err error) {
	f.data.mu.Lock()
	defer f.data.mu.Unlock()
	if f.data.data, err = writeAt(f.data.data, p, off); err != nil {
		return 0, err
	}
	f.data.mod = time.Now()
	return len(p), nil
}

// Preallocate reserves capacity for size bytes without changing the
// logical length, so a store whose size was announced up front (ALLO)
// lands block by block with zero grow-copies.
func (f *memFile) Preallocate(size int64) {
	f.data.mu.Lock()
	defer f.data.mu.Unlock()
	f.data.data = preallocate(f.data.data, size)
}

// Size implements File.
func (f *memFile) Size() (int64, error) {
	f.data.mu.RLock()
	defer f.data.mu.RUnlock()
	return int64(len(f.data.data)), nil
}

// Close implements io.Closer.
func (f *memFile) Close() error {
	f.closed = true
	return nil
}
