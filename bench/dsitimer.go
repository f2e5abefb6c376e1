package main

import (
	"time"

	"gridftp.dev/instant/internal/dsi"
)

// timedStorage is the dsi.Storage decorator the traced run hands to
// ServerConfig.Storage / gcmu.Options.Storage: it forwards every call
// unchanged and records one leaf span per call. The benchmark itself stages
// and verifies through the undecorated backend, so only the program's own
// storage calls are counted.
type timedStorage struct {
	inner dsi.Storage
	rec   *recorder
}

// timed wraps s for the traced run; the untraced run (nil recorder) gets
// the backend itself, so no wrapper sits in its measured path.
func timed(s dsi.Storage, rec *recorder) dsi.Storage {
	if rec == nil {
		return s
	}
	return &timedStorage{inner: s, rec: rec}
}

func (t *timedStorage) Open(user, p string) (dsi.File, error) {
	start := time.Now()
	f, err := t.inner.Open(user, p)
	t.rec.leaf("dsi.open", start, time.Now(), 0)
	if err != nil {
		return nil, err
	}
	return &timedFile{inner: f, rec: t.rec}, nil
}

func (t *timedStorage) Create(user, p string) (dsi.File, error) {
	start := time.Now()
	f, err := t.inner.Create(user, p)
	t.rec.leaf("dsi.create", start, time.Now(), 0)
	if err != nil {
		return nil, err
	}
	return &timedFile{inner: f, rec: t.rec}, nil
}

func (t *timedStorage) Stat(user, p string) (dsi.FileInfo, error) {
	start := time.Now()
	fi, err := t.inner.Stat(user, p)
	t.rec.leaf("dsi.stat", start, time.Now(), 0)
	return fi, err
}

func (t *timedStorage) List(user, p string) ([]dsi.FileInfo, error) {
	start := time.Now()
	fis, err := t.inner.List(user, p)
	t.rec.leaf("dsi.list", start, time.Now(), 0)
	return fis, err
}

func (t *timedStorage) Mkdir(user, p string) error {
	start := time.Now()
	err := t.inner.Mkdir(user, p)
	t.rec.leaf("dsi.mkdir", start, time.Now(), 0)
	return err
}

func (t *timedStorage) Remove(user, p string) error {
	start := time.Now()
	err := t.inner.Remove(user, p)
	t.rec.leaf("dsi.remove", start, time.Now(), 0)
	return err
}

func (t *timedStorage) Rename(user, from, to string) error {
	start := time.Now()
	err := t.inner.Rename(user, from, to)
	t.rec.leaf("dsi.rename", start, time.Now(), 0)
	return err
}

// timedFile forwards a dsi.File and the Preallocate hint the server probes
// for, so the decorated file takes the same code path as the bare one.
type timedFile struct {
	inner dsi.File
	rec   *recorder
}

func (f *timedFile) ReadAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.inner.ReadAt(p, off)
	f.rec.leaf("dsi.readat", start, time.Now(), int64(n))
	return n, err
}

func (f *timedFile) WriteAt(p []byte, off int64) (int, error) {
	start := time.Now()
	n, err := f.inner.WriteAt(p, off)
	f.rec.leaf("dsi.writeat", start, time.Now(), int64(n))
	return n, err
}

func (f *timedFile) Size() (int64, error) { return f.inner.Size() }

func (f *timedFile) Close() error {
	start := time.Now()
	err := f.inner.Close()
	f.rec.leaf("dsi.close", start, time.Now(), 0)
	return err
}

func (f *timedFile) Preallocate(size int64) {
	if p, ok := f.inner.(interface{ Preallocate(int64) }); ok {
		p.Preallocate(size)
	}
}
