// Package store is mosaicd's disk-backed persistence layer: a
// content-addressed job store plus an artifact blob index, built so a
// restarted daemon resumes queued jobs, replays finished event streams
// byte-identically, and keeps its schedule-capture/trace artifacts instead
// of recomputing them.
//
// Layout under the root directory:
//
//	jobs/<digest>/job.json      the job record (ID, tenant, priority, spec)
//	jobs/<digest>/events.ndjson append-only event log, one JSON line each
//	jobs/<digest>/report.json   the final report (done jobs only)
//	artifacts/<name>            opaque blobs (traces, schedules) keyed by name
//
// <digest> is the hex SHA-256 of the job's identity (ID + canonical spec
// JSON), so a job's directory name is a content address: two stores never
// disagree about where a job lives, and a partially-created directory from a
// crash is simply re-created idempotently. Every one-shot file (job.json,
// report.json, artifact blobs) is written to a temp file and renamed into
// place, so readers never observe a torn write; the event log is an O_APPEND
// stream whose recovery path tolerates a torn final line (the only state a
// kill can leave it in).
//
// The store is deliberately ignorant of the jobs package's types: events are
// opaque JSON lines, specs are raw JSON. That keeps it a leaf dependency —
// internal/jobs persists through it, internal/sim exports artifacts into it,
// and neither import cycles back.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// JobRecord is the durable identity of one job: everything needed to rebuild
// its admission-time state after a restart. Spec is stored as the normalized
// raw JSON the manager admitted, so recovery re-runs exactly what was
// accepted (not a re-normalization under newer defaults).
type JobRecord struct {
	ID        string          `json:"id"`
	Digest    string          `json:"digest"`
	Tenant    string          `json:"tenant,omitempty"`
	Priority  string          `json:"priority,omitempty"`
	Submitted time.Time       `json:"submitted"`
	Spec      json.RawMessage `json:"spec"`
}

// JobSnapshot is one recovered job: its record, every intact event line in
// append order, and the final report if one was written.
type JobSnapshot struct {
	Rec    JobRecord
	Events []json.RawMessage
	Report json.RawMessage
}

// Digest computes a job's content address: hex SHA-256 over the ID and the
// canonical spec JSON, separated by a newline so neither can masquerade as
// the other.
func Digest(id string, spec []byte) string {
	h := sha256.New()
	h.Write([]byte(id))
	h.Write([]byte{'\n'})
	h.Write(spec)
	return hex.EncodeToString(h.Sum(nil))
}

// Store is one open data directory. It is safe for concurrent use; each
// job's event appender is a single O_APPEND file handle, cached until the
// job is closed.
type Store struct {
	dir string

	mu        sync.Mutex
	appenders map[string]*os.File // digest → open events.ndjson handle
	closed    bool
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "jobs"), filepath.Join(dir, "artifacts")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{dir: dir, appenders: map[string]*os.File{}}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) jobDir(digest string) string {
	return filepath.Join(s.dir, "jobs", digest)
}

// writeFileAtomic lands data at path via a temp file and rename, so a crash
// never leaves a torn file where readers look.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return err
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return err
	}
	return os.Rename(name, path)
}

// isClosed reports whether Close has run. Writers check it so a closed
// store refuses everything, exactly like a dead process — which is what
// crash tests use Close to simulate.
func (s *Store) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// CreateJob persists a job record under its digest directory. It is
// idempotent: re-creating an existing job (a crash between directory
// creation and the first event) rewrites the same record.
func (s *Store) CreateJob(rec JobRecord) error {
	if s.isClosed() {
		return fmt.Errorf("store: closed")
	}
	if rec.Digest == "" {
		return fmt.Errorf("store: job %s has no digest", rec.ID)
	}
	dir := s.jobDir(rec.Digest)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(dir, "job.json"), append(b, '\n')); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// AppendEvent appends one JSON line to the job's event log. The line must be
// a single complete JSON value without embedded newlines; the store adds the
// terminating newline. Appends are ordered per job by the caller (the jobs
// manager holds the job lock across emit+persist).
func (s *Store) AppendEvent(digest string, line []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	f := s.appenders[digest]
	if f == nil {
		path := filepath.Join(s.jobDir(digest), "events.ndjson")
		// A crash mid-append can leave the log without a trailing newline.
		// Terminate the torn tail before appending, so the new line does not
		// glue onto it (the tear then reads as one invalid line, which
		// recovery drops; the new line stays intact).
		if b, err := os.ReadFile(path); err == nil && len(b) > 0 && b[len(b)-1] != '\n' {
			if g, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644); err == nil {
				_, _ = g.Write([]byte{'\n'})
				g.Close()
			}
		}
		var err error
		f, err = os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.appenders[digest] = f
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// PutReport persists a finished job's report atomically.
func (s *Store) PutReport(digest string, report []byte) error {
	if s.isClosed() {
		return fmt.Errorf("store: closed")
	}
	if err := writeFileAtomic(filepath.Join(s.jobDir(digest), "report.json"), report); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// CloseJob releases the job's event appender (terminal jobs append no more).
// Syncing the log here bounds what a subsequent crash can lose to jobs that
// were still live.
func (s *Store) CloseJob(digest string) {
	s.mu.Lock()
	f := s.appenders[digest]
	delete(s.appenders, digest)
	s.mu.Unlock()
	if f != nil {
		_ = f.Sync()
		_ = f.Close()
	}
}

// Jobs scans the store and returns every recoverable job, sorted by ID (the
// manager's IDs sort in admission order). Directories without an intact
// job.json are skipped — a crash between MkdirAll and the record rename
// leaves exactly that, and the job was never acknowledged to a client. A
// torn final event line (the only tear an O_APPEND log can suffer) is
// dropped; every intact line is returned verbatim, so replayed event logs
// are byte-identical to what was served before the restart.
func (s *Store) Jobs() ([]JobSnapshot, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var out []JobSnapshot
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		snap, err := s.loadJob(e.Name())
		if err != nil {
			continue // unreadable record: treat as never-acknowledged
		}
		out = append(out, snap)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rec.ID < out[j].Rec.ID })
	return out, nil
}

func (s *Store) loadJob(digest string) (JobSnapshot, error) {
	dir := s.jobDir(digest)
	b, err := os.ReadFile(filepath.Join(dir, "job.json"))
	if err != nil {
		return JobSnapshot{}, err
	}
	var snap JobSnapshot
	if err := json.Unmarshal(b, &snap.Rec); err != nil {
		return JobSnapshot{}, err
	}
	if snap.Rec.Digest != digest {
		return JobSnapshot{}, fmt.Errorf("store: record digest %q under directory %q", snap.Rec.Digest, digest)
	}
	if ev, err := os.ReadFile(filepath.Join(dir, "events.ndjson")); err == nil {
		sc := bufio.NewScanner(strings.NewReader(string(ev)))
		sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 || !json.Valid(line) {
				continue // torn tail (or blank): drop, keep the intact prefix
			}
			snap.Events = append(snap.Events, json.RawMessage(append([]byte(nil), line...)))
		}
	}
	if rep, err := os.ReadFile(filepath.Join(dir, "report.json")); err == nil && json.Valid(rep) {
		snap.Report = rep
	}
	return snap, nil
}

// sanitizeBlobName keeps artifact names inside the artifacts directory.
func sanitizeBlobName(name string) error {
	if name == "" || strings.ContainsAny(name, "/\\") || name == "." || name == ".." {
		return fmt.Errorf("store: bad artifact name %q", name)
	}
	return nil
}

// PutArtifact lands an opaque blob under name, atomically, unless the blob
// stored there already holds data. A name encodes only the sim cache key, so
// a stored blob with other bytes is damaged or from another build (one the
// import refused, which the export then re-created): it is replaced. It
// reports whether it wrote.
func (s *Store) PutArtifact(name string, data []byte) (bool, error) {
	if err := sanitizeBlobName(name); err != nil {
		return false, err
	}
	if s.isClosed() {
		return false, fmt.Errorf("store: closed")
	}
	path := filepath.Join(s.dir, "artifacts", name)
	if old, err := os.ReadFile(path); err == nil && bytes.Equal(old, data) {
		return false, nil
	}
	if err := writeFileAtomic(path, data); err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	return true, nil
}

// Artifacts streams every stored blob to fn. Iteration stops on the first
// error fn returns.
func (s *Store) Artifacts(fn func(name string, data []byte) error) error {
	dir := filepath.Join(s.dir, "artifacts")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasPrefix(e.Name(), ".tmp-") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			continue // a blob is a cache entry; unreadable means rebuildable
		}
		if err := fn(e.Name(), b); err != nil {
			return err
		}
	}
	return nil
}

// Close syncs and releases every open event appender.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var first error
	for d, f := range s.appenders {
		_ = f.Sync()
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.appenders, d)
	}
	return first
}
