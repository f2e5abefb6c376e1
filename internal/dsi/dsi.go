// Package dsi defines the Data Storage Interface, the Globus GridFTP
// abstraction that lets a standard GridFTP client reach any storage system
// (§II.A [5] of the paper). Three implementations are provided: an
// in-memory store, a POSIX store rooted in a real directory, and an
// archival wrapper adding HPSS-like stage latency.
//
// All operations take the local username the session was authorized as;
// implementations confine each user to their own sandbox, reproducing the
// effect of the GridFTP server's setuid to the mapped local account.
package dsi

import (
	"errors"
	"io"
	"path"
	"sort"
	"strings"
	"time"
)

// Common sentinel errors.
var (
	ErrNotExist = errors.New("dsi: no such file or directory")
	ErrIsDir    = errors.New("dsi: is a directory")
	ErrNotDir   = errors.New("dsi: not a directory")
	ErrExist    = errors.New("dsi: file exists")
	ErrDenied   = errors.New("dsi: permission denied")
	ErrNotEmpty = errors.New("dsi: directory not empty")
	ErrBadPath  = errors.New("dsi: invalid path")
	ErrNoUser   = errors.New("dsi: unknown local user")
)

// FileInfo describes one entry, the data MLSD/MLST facts are built from.
type FileInfo struct {
	Name    string
	Size    int64
	ModTime time.Time
	IsDir   bool
}

// File is an open file handle. Both ReaderAt and WriterAt are required
// because MODE E data blocks arrive at arbitrary offsets on parallel
// streams.
type File interface {
	io.ReaderAt
	io.WriterAt
	io.Closer
	// Size returns the current length of the file.
	Size() (int64, error)
}

// Storage is the Data Storage Interface.
type Storage interface {
	// Open opens an existing file for reading.
	Open(user, p string) (File, error)
	// Create opens a file for writing, creating or truncating it.
	Create(user, p string) (File, error)
	// Stat describes a file or directory.
	Stat(user, p string) (FileInfo, error)
	// List returns directory entries sorted by name.
	List(user, p string) ([]FileInfo, error)
	// Mkdir creates a directory.
	Mkdir(user, p string) error
	// Remove deletes a file or empty directory.
	Remove(user, p string) error
	// Rename moves a file or directory within the user's space.
	Rename(user, from, to string) error
}

// CleanPath normalizes an absolute-or-relative GridFTP path to a rooted,
// dot-free form. Cleaning a rooted path cannot climb above the root: ".."
// at the root is the root.
func CleanPath(p string) string {
	if p == "" {
		p = "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	return path.Clean(p)
}

// ReadAll reads an entire file through the File interface.
func ReadAll(f File) ([]byte, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if size == 0 {
		return buf, nil
	}
	n, err := f.ReadAt(buf, 0)
	if int64(n) == size && (err == nil || err == io.EOF) {
		return buf, nil
	}
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return buf[:n], err
}

// WriteAll writes data at offset 0 through the File interface.
func WriteAll(f File, data []byte) error {
	_, err := f.WriteAt(data, 0)
	return err
}

func sortInfos(infos []FileInfo) {
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
}
