package dsi

import (
	"sync"
	"time"
)

// ArchivalStorage wraps another Storage with HPSS-like behaviour: opening
// a file that is not "staged" to the disk cache pays a stage latency (tape
// recall), after which the file stays staged for a residency window.
// GridFTP's DSI modularity is exactly what lets it front archives like
// HPSS (§II.A [6]); this backend exercises that code path and gives the
// benchmarks an archival latency profile.
type ArchivalStorage struct {
	Backend Storage
	// StageLatency is the tape-recall delay for a cold open.
	StageLatency time.Duration
	// Residency is how long a staged file stays hot.
	Residency time.Duration

	mu     sync.Mutex
	staged map[string]time.Time
}

// NewArchivalStorage wraps backend with stage semantics.
func NewArchivalStorage(backend Storage, stageLatency, residency time.Duration) *ArchivalStorage {
	return &ArchivalStorage{
		Backend:      backend,
		StageLatency: stageLatency,
		Residency:    residency,
		staged:       make(map[string]time.Time),
	}
}

// stage blocks for the recall latency if the file is cold, then marks it
// hot.
func (a *ArchivalStorage) stage(user, p string) {
	key := user + "\x00" + p
	a.mu.Lock()
	until, hot := a.staged[key]
	now := time.Now()
	if hot && now.Before(until) {
		a.staged[key] = now.Add(a.Residency)
		a.mu.Unlock()
		return
	}
	a.mu.Unlock()
	time.Sleep(a.StageLatency)
	a.mu.Lock()
	a.staged[key] = time.Now().Add(a.Residency)
	a.mu.Unlock()
}

// Open implements Storage, paying stage latency for cold files.
func (a *ArchivalStorage) Open(user, p string) (File, error) {
	a.stage(user, p)
	return a.Backend.Open(user, p)
}

// Create implements Storage; new files are written to the disk cache and
// are immediately hot.
func (a *ArchivalStorage) Create(user, p string) (File, error) {
	f, err := a.Backend.Create(user, p)
	if err == nil {
		a.mu.Lock()
		a.staged[user+"\x00"+p] = time.Now().Add(a.Residency)
		a.mu.Unlock()
	}
	return f, err
}

// Stat implements Storage (metadata lives in the name space, no recall).
func (a *ArchivalStorage) Stat(user, p string) (FileInfo, error) { return a.Backend.Stat(user, p) }

// List implements Storage.
func (a *ArchivalStorage) List(user, p string) ([]FileInfo, error) { return a.Backend.List(user, p) }

// Mkdir implements Storage.
func (a *ArchivalStorage) Mkdir(user, p string) error { return a.Backend.Mkdir(user, p) }

// Remove implements Storage.
func (a *ArchivalStorage) Remove(user, p string) error { return a.Backend.Remove(user, p) }

// Rename implements Storage.
func (a *ArchivalStorage) Rename(user, from, to string) error {
	return a.Backend.Rename(user, from, to)
}
