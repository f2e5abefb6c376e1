package dsi

import (
	"os"
	"path/filepath"
	"syscall"
)

// renameIn moves from to to within r with renameat(2) between their two
// parents, each opened through r, so neither end can be a directory outside
// the sandbox. The final names are not followed: a symlink moves as itself.
func renameIn(r *os.Root, _, from, to string) error {
	fromDir, err := r.Open(filepath.Dir(from))
	if err != nil {
		return err
	}
	defer fromDir.Close()
	toDir, err := r.Open(filepath.Dir(to))
	if err != nil {
		return err
	}
	defer toDir.Close()
	return syscall.Renameat(int(fromDir.Fd()), filepath.Base(from), int(toDir.Fd()), filepath.Base(to))
}
