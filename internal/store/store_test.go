package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestJobRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"workload":"sgemm","scale":"tiny"}`)
	d := Digest("j000001", spec)
	rec := JobRecord{ID: "j000001", Digest: d, Tenant: "acme", Priority: "high", Spec: spec}
	if err := s.CreateJob(rec); err != nil {
		t.Fatal(err)
	}
	lines := [][]byte{
		[]byte(`{"seq":0,"type":"state","state":"queued"}`),
		[]byte(`{"seq":1,"type":"state","state":"running"}`),
		[]byte(`{"seq":2,"type":"stage","stage":"run","seconds":0.5}`),
	}
	for _, l := range lines {
		if err := s.AppendEvent(d, l); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.PutReport(d, []byte(`{"Cycles":42}`)); err != nil {
		t.Fatal(err)
	}
	s.CloseJob(d)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen (a restart) and recover.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := s2.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("recovered %d jobs, want 1", len(jobs))
	}
	got := jobs[0]
	if got.Rec.ID != "j000001" || got.Rec.Tenant != "acme" || got.Rec.Priority != "high" {
		t.Errorf("record = %+v", got.Rec)
	}
	if !bytes.Equal(got.Rec.Spec, spec) {
		t.Errorf("spec = %s, want %s", got.Rec.Spec, spec)
	}
	if len(got.Events) != len(lines) {
		t.Fatalf("recovered %d events, want %d", len(got.Events), len(lines))
	}
	for i, l := range lines {
		if !bytes.Equal(got.Events[i], l) {
			t.Errorf("event %d = %s, want byte-identical %s", i, got.Events[i], l)
		}
	}
	if string(got.Report) != `{"Cycles":42}` {
		t.Errorf("report = %s", got.Report)
	}
}

// TestTornTailLineDropped simulates a kill mid-append: the final event line
// is truncated. Recovery must keep every intact line and drop only the tear.
func TestTornTailLineDropped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"workload":"bfs"}`)
	d := Digest("j000002", spec)
	if err := s.CreateJob(JobRecord{ID: "j000002", Digest: d, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEvent(d, []byte(`{"seq":0,"type":"state","state":"queued"}`)); err != nil {
		t.Fatal(err)
	}
	s.CloseJob(d)
	// Tear: raw partial append without a newline-terminated JSON value.
	f, err := os.OpenFile(filepath.Join(dir, "jobs", d, "events.ndjson"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":1,"type":"sta`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || len(jobs[0].Events) != 1 {
		t.Fatalf("jobs = %+v; want 1 job with 1 intact event", jobs)
	}
}

// TestUnacknowledgedDirectorySkipped: a crash between MkdirAll and the
// job.json rename leaves a bare directory; recovery must skip it.
func TestUnacknowledgedDirectorySkipped(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs", "deadbeef"), 0o755); err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Fatalf("recovered %d jobs from a bare directory, want 0", len(jobs))
	}
}

func TestJobsSortedByID(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"j000003", "j000001", "j000002"} {
		spec := []byte(fmt.Sprintf(`{"workload":"sgemm","id":%q}`, id))
		if err := s.CreateJob(JobRecord{ID: id, Digest: Digest(id, spec), Spec: spec}); err != nil {
			t.Fatal(err)
		}
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, j := range jobs {
		ids = append(ids, j.Rec.ID)
	}
	want := []string{"j000001", "j000002", "j000003"}
	if fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Errorf("ids = %v, want %v", ids, want)
	}
}

func TestArtifactBlobs(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	wrote, err := s.PutArtifact("trace-abc123", []byte("payload"))
	if err != nil || !wrote {
		t.Fatalf("first put: wrote=%v err=%v", wrote, err)
	}
	// The same bytes again are not rewritten.
	wrote, err = s.PutArtifact("trace-abc123", []byte("payload"))
	if err != nil || wrote {
		t.Fatalf("second put: wrote=%v err=%v", wrote, err)
	}
	// Other bytes under the name replace a damaged blob, or an older build's.
	if wrote, err = s.PutArtifact("trace-abc123", []byte("p\x00yload")); err != nil || !wrote {
		t.Fatalf("damaged blob not replaced: wrote=%v err=%v", wrote, err)
	}
	if wrote, err = s.PutArtifact("trace-abc123", []byte("payload")); err != nil || !wrote {
		t.Fatalf("put after damage: wrote=%v err=%v", wrote, err)
	}
	if _, err := s.PutArtifact("../escape", []byte("x")); err == nil {
		t.Error("path-escaping artifact name accepted")
	}
	got := map[string]string{}
	if err := s.Artifacts(func(name string, data []byte) error {
		got[name] = string(data)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got["trace-abc123"] != "payload" {
		t.Errorf("artifacts = %v", got)
	}
}

// TestDigestBinding: the digest covers both ID and spec, and the record's
// digest must match its directory on load.
func TestDigestBinding(t *testing.T) {
	spec := []byte(`{"workload":"sgemm"}`)
	if Digest("j1", spec) == Digest("j2", spec) {
		t.Error("digest ignores the job ID")
	}
	if Digest("j1", spec) == Digest("j1", []byte(`{"workload":"bfs"}`)) {
		t.Error("digest ignores the spec")
	}
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A record whose digest disagrees with its directory is skipped.
	bad := filepath.Join(dir, "jobs", "0000")
	if err := os.MkdirAll(bad, 0o755); err != nil {
		t.Fatal(err)
	}
	rec, _ := json.Marshal(JobRecord{ID: "jX", Digest: "ffff", Spec: spec})
	if err := os.WriteFile(filepath.Join(bad, "job.json"), rec, 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, err := s.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Errorf("mismatched-digest record recovered: %+v", jobs)
	}
}
