package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"mosaicsim/internal/replay"
	"mosaicsim/internal/trace"
)

// This file is the cache's persistence boundary: export the expensive,
// serializable artifacts (dynamic traces and recorded timing schedules) as
// opaque named blobs, and import them back after a restart. Compiled
// kernels, DDGs, and DAE slices are deliberately NOT serialized — they
// rebuild cheaply and deterministically through the compile singleflight,
// and their in-memory graphs are cyclic (hostile to any codec). An imported
// trace is staged, not installed: Session.Artifact adopts it lazily inside
// the build closure, re-compiling the (cheap) kernel and graph around it
// and skipping only the expensive TraceWith/TracePairs step, so artifact
// structure and singleflight semantics stay identical to a cold build.
//
// Blob format: one JSON header line (the artifact kind, its full cache key and
// the payload's checksum) followed by the payload — the trace's own binary
// codec (trace.WriteTo/trace.Read), or the schedule as JSON. Blob names are
// content addresses derived from the key, so a store can write-if-absent.

// blobHeader is the first (newline-terminated) line of every exported blob.
type blobHeader struct {
	Kind string `json:"kind"` // "trace" or "sched"
	Key  Key    `json:"key"`
	// Struct is the schedule's structural config hash ("sched" blobs only).
	Struct     uint64 `json:"struct,omitempty"`
	Accounting int    `json:"accounting,omitempty"` // "sched" blobs: schedAccounting
	// Sum is payloadSum of the payload. Blobs of older builds have none; a
	// blob that has one imports only if its payload still matches it.
	Sum string `json:"sum,omitempty"`
}

// schedAccounting is the stall accounting this build records: stall cycles
// charged at the next step (1). A replay hit serves the recorded Result
// verbatim, so a schedule counted any other way is refused and re-recorded.
const schedAccounting = 1

// payloadSum is the hex SHA-256 of a blob's payload, cut to 128 bits.
func payloadSum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:16])
}

// blob frames payload under hdr, stamped with the payload's checksum.
func blob(hdr blobHeader, payload []byte) ([]byte, error) {
	hdr.Sum = payloadSum(payload)
	hb, err := json.Marshal(hdr)
	if err != nil {
		return nil, err
	}
	return append(append(hb, '\n'), payload...), nil
}

// blobName derives the content-addressed blob name for a header without a
// checksum: the kind plus a hash of the canonical header JSON, so equal keys
// collide (by design — the blob is already present) and distinct keys cannot.
// The stamp is left out, so a re-recorded schedule replaces its refused blob.
func blobName(h blobHeader) string {
	h.Accounting = 0
	b, _ := json.Marshal(h)
	sum := sha256.Sum256(b)
	return h.Kind + "-" + hex.EncodeToString(sum[:16])
}

// ExportArtifacts streams every serializable completed artifact — traced
// artifacts and recorded schedules, staged imports included — to fn as
// (name, blob) pairs. fn is typically store.PutArtifact; iteration stops on
// its first error.
func (c *Cache) ExportArtifacts(fn func(name string, data []byte) error) error {
	type traceEntry struct {
		key Key
		tr  *trace.Trace
	}
	type schedEntry struct {
		key schedKey
		s   *replay.Schedule
	}
	c.mu.Lock()
	var traces []traceEntry
	seen := map[Key]bool{}
	for k, f := range c.arts.m {
		if f.completed && f.err == nil && f.val != nil && f.val.Trace != nil {
			traces = append(traces, traceEntry{k, f.val.Trace})
			seen[k] = true
		}
	}
	for k, tr := range c.imported {
		if !seen[k] {
			traces = append(traces, traceEntry{k, tr})
		}
	}
	var scheds []schedEntry
	for k, f := range c.scheds.m {
		if f.completed && f.err == nil && f.val != nil {
			scheds = append(scheds, schedEntry{k, f.val})
		}
	}
	c.mu.Unlock()
	put := func(hdr blobHeader, payload []byte) error {
		data, err := blob(hdr, payload)
		if err != nil {
			return fmt.Errorf("sim: export: %w", err)
		}
		return fn(blobName(hdr), data)
	}
	for _, e := range traces {
		var buf bytes.Buffer
		if _, err := e.tr.WriteTo(&buf); err != nil {
			return fmt.Errorf("sim: export trace %s: %w", e.key.Kernel, err)
		}
		if err := put(blobHeader{Kind: "trace", Key: e.key}, buf.Bytes()); err != nil {
			return err
		}
	}
	for _, e := range scheds {
		sb, err := json.Marshal(e.s)
		if err != nil {
			return fmt.Errorf("sim: export schedule %s: %w", e.key.Kernel, err)
		}
		if err := put(blobHeader{Kind: "sched", Key: e.key.Key, Struct: e.key.Struct, Accounting: schedAccounting}, sb); err != nil {
			return err
		}
	}
	return nil
}

// ImportArtifact decodes one exported blob back into the cache: a trace is
// staged for lazy adoption by the next Artifact build under its key, and a
// schedule is installed directly (first writer wins; imports never count as
// newly recorded). Unknown kinds, payloads that fail their checksum, corrupt
// payloads, traces of an older format (trace.ErrOlderVersion) and schedules
// of another stall accounting are errors: the kernel is then traced or the
// leg run again, and the next export rewrites the blob.
func (c *Cache) ImportArtifact(name string, data []byte) error {
	line, payload, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		return fmt.Errorf("sim: import %s: missing header: %w", name, io.ErrUnexpectedEOF)
	}
	var hdr blobHeader
	if err := json.Unmarshal(line, &hdr); err != nil {
		return fmt.Errorf("sim: import %s: bad header: %w", name, err)
	}
	if hdr.Sum != "" && hdr.Sum != payloadSum(payload) {
		return fmt.Errorf("sim: import %s: payload does not match its checksum", name)
	}
	r := bytes.NewReader(payload)
	switch hdr.Kind {
	case "trace":
		tr, err := trace.Read(r)
		if err != nil {
			return fmt.Errorf("sim: import %s: %w", name, err)
		}
		c.mu.Lock()
		if c.imported == nil {
			c.imported = map[Key]*trace.Trace{}
		}
		if _, ok := c.imported[hdr.Key]; !ok {
			c.imported[hdr.Key] = tr
		}
		c.mu.Unlock()
		return nil
	case "sched":
		if hdr.Accounting != schedAccounting {
			return fmt.Errorf("sim: import %s: schedule recorded under stall accounting %d, this build counts %d", name, hdr.Accounting, schedAccounting)
		}
		var s replay.Schedule
		dec := json.NewDecoder(r)
		if err := dec.Decode(&s); err != nil {
			return fmt.Errorf("sim: import %s: %w", name, err)
		}
		s.KeepCanon() // once per schedule, as Recorder.Build does
		c.putSchedule(hdr.Key, hdr.Struct, &s)
		return nil
	default:
		return fmt.Errorf("sim: import %s: unknown artifact kind %q", name, hdr.Kind)
	}
}

// importedTrace returns the staged imported trace for key, or nil. The
// entry stays staged (it is the durable copy an evicted artifact re-adopts)
// — Session.Artifact wraps it in a fresh Artifact per build, unless it fails
// adoption and is dropped.
func (c *Cache) importedTrace(key Key) *trace.Trace {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.imported[key]
}

// dropImported unstages the trace imported for key.
func (c *Cache) dropImported(key Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.imported, key)
}
