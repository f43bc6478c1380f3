package store

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Journal is the sweep checkpoint: an append-only file of completed
// cell keys, one per line, living alongside the cache entries. A
// resumed sweep reads it to learn which cells finished before the
// interruption; the cache then supplies their rows. The journal is the
// cheap, crash-ordered half of the pair — a key is recorded only after
// its entry has been renamed into the cache, so every journaled key is
// backed by a durable row (the converse need not hold; unjournaled
// cache entries are still served as ordinary hits).
//
// A crash mid-append can leave a torn final line. Lines that do not look
// like keys are ignored on read, and OpenJournal ends a torn final line
// with a newline before anything is appended, so the torn line costs
// only its own cell's re-run and never swallows the next record.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	done map[string]bool
}

// OpenJournal opens (creating if needed) the journal file at path,
// reading the set of already-recorded keys.
func OpenJournal(path string) (*Journal, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("store: journal %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: journal %s: %w", path, err)
	}
	j := &Journal{f: f, done: make(map[string]bool)}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if key := sc.Text(); validKey(key) {
			j.done[key] = true
		}
	}
	if err := sc.Err(); err == nil {
		err = endTornLine(f)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: journal %s: %w", path, err)
	}
	return j, nil
}

// endTornLine appends (and syncs) a newline when a non-empty journal
// does not end in one; otherwise the next O_APPEND record would extend
// the torn line and be unreadable as a key.
func endTornLine(f *os.File) error {
	fi, err := f.Stat()
	if err != nil || fi.Size() == 0 {
		return err
	}
	last := make([]byte, 1)
	if _, err := f.ReadAt(last, fi.Size()-1); err != nil || last[0] == '\n' {
		return err
	}
	if _, err := f.WriteString("\n"); err != nil {
		return err
	}
	return f.Sync()
}

// validKey reports whether a journal line is a plausible cache key
// (lowercase hex SHA-256).
func validKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// Done reports whether key was recorded, now or in a previous run.
func (j *Journal) Done(key string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.done[key]
}

// Len returns the number of recorded keys.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Record appends key to the journal and syncs it to disk. Recording an
// already-recorded key is a no-op. Safe for concurrent use.
func (j *Journal) Record(key string) error {
	if !validKey(key) {
		return fmt.Errorf("store: journal: invalid key %q", key)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done[key] {
		return nil
	}
	if _, err := j.f.WriteString(key + "\n"); err != nil {
		return fmt.Errorf("store: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("store: journal sync: %w", err)
	}
	j.done[key] = true
	return nil
}

// Close closes the journal file. Record must not be called after Close.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
