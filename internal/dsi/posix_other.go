//go:build !linux

package dsi

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
)

// renameIn moves from to to within r, whose directory is home. Without
// renameat(2) in package syscall, it refuses a rename whose either parent
// path crosses a symlink, then renames by path.
func renameIn(r *os.Root, home, from, to string) error {
	for _, p := range []string{filepath.Dir(from), filepath.Dir(to)} {
		for at := p; at != "."; at = filepath.Dir(at) {
			if fi, err := r.Lstat(at); err == nil && fi.Mode()&fs.ModeSymlink != 0 {
				return errors.New("rename through a symlink escapes the sandbox check")
			}
		}
	}
	return os.Rename(filepath.Join(home, from), filepath.Join(home, to))
}
