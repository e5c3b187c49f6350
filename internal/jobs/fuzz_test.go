package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mosaicsim/internal/store"
)

// FuzzSpecDecode feeds arbitrary bytes down the path an untrusted submission
// takes — the strict decode of POST /v1/jobs, Normalize, SessionOptions —
// and requires a typed error or a usable result, never a panic and never
// more than a second. A spec that normalizes must be a fixed point of
// Normalize (a lease re-normalizes the spec it carries) and must lower.
func FuzzSpecDecode(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"sgemm","scale":"tiny","tiles":2}`,
		`{"workload":"spmv","scale":"tiny","priority":"high","tenant":"acme","timeout":"30s"}`,
		`{"workload":"sgemm","slicing":"dae","tiles":4,"core":"inorder","mem":"tab1"}`,
		`{"workload":"sgemm","preset":"core-accel","replay":false,"noskip":true,"limit":1000}`,
		`{"workload":"sgemm","opt":"O2","unroll":4}`,
		`{"workload":"sgemm","passes":"constfold,dce"}`,
		`{"workload":"sgemm","topology":{"name":"x","tiles":[{"kind":"ooo"}]}}`,
		`{"workload":"sgemm","topology":{"name":"x","tiles":[{"kind":"ooo","count":3},{"kind":"accel-tile","role":"execute"}],"noc":{"kind":"mesh"}}}`,
		`{"workload":"sgem"}`,
		`{"workload":"sgemm","tils":4}`,
		`{"workload":"sgemm","step_workers":4}`,
		`{"workload":"sgemm","slicing":"dae","tiles":3}`,
		`{"workload":"sgemm","tiles":-1}`,
		`{"workload":"sgemm","timeout":"bogus"}`,
		`{"workload":"sgemm","topology":{"name":"x","tiles":[{"kind":"ooo"}],"step_workers":4}}`,
		`{"workload":"sgemm","preset":"core-accel","tiles":2}`,
		// Counts that used to be walked instance by instance at admission.
		`{"workload":"sgemm","tiles":2000000000}`,
		`{"workload":"sgemm","topology":{"name":"x","tiles":[{"kind":"ooo","count":2000000000}]}}`,
		`{}`, `[]`, `null`, `{"workload":`, ``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// On its own goroutine, so a hang is a failure that names its input
		// instead of a fuzz worker that silently stops executing.
		fail := make(chan string, 1)
		go func() { fail <- specDecodeDefect(data) }()
		select {
		case msg := <-fail:
			if msg != "" {
				t.Fatal(msg)
			}
		case <-time.After(time.Second):
			t.Fatalf("still working on %q after 1s", data)
		}
	})
}

// specDecodeDefect runs one input down the path and describes what is wrong
// with the outcome ("" = nothing).
func specDecodeDefect(data []byte) string {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if dec.Decode(&spec) != nil {
		return ""
	}
	norm, err := spec.Normalize()
	if err != nil {
		return ""
	}
	again, err := norm.Normalize()
	if err != nil || !reflect.DeepEqual(again, norm) {
		return fmt.Sprintf("Normalize is not idempotent: %+v then %+v (%v)", norm, again, err)
	}
	if _, err := norm.SessionOptions(nil); err != nil {
		return fmt.Sprintf("an admitted spec does not lower: %v\n%+v", err, norm)
	}
	_ = norm.AffinityHash()
	return ""
}

// FuzzEventLogRecovery writes arbitrary bytes as a job's events.ndjson next
// to a valid job.json and opens a manager on the directory. Recovery must not
// panic; the job's state must be the fold of the log's intact lines (a job
// the fold leaves live resumes queued); and a terminal job's log must not
// grow.
func FuzzEventLogRecovery(f *testing.F) {
	logs, err := filepath.Glob(filepath.Join(parentStore, "jobs", "*", "events.ndjson"))
	if err != nil || len(logs) == 0 {
		f.Fatalf("no seed logs under %s: %v", parentStore, err)
	}
	for _, p := range logs {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-len(b)/3]) // a torn tail
	}
	for _, seed := range []string{
		// An older build's cancel/requeue race: a queued edge after the terminal one.
		`{"seq":0,"type":"state","state":"queued"}` + "\n" + `{"seq":1,"type":"state","state":"running","worker":"w","attempt":1}` + "\n" +
			`{"seq":2,"type":"state","state":"cancelled","error":"cancelled before start"}` + "\n" + `{"seq":3,"type":"state","state":"queued","worker":"w","attempt":1}` + "\n",
		`{"type":"state","state":"done"}` + "\r\n" + `{"type":"progress","cycle":5}`,
		`{"type":"state","state":"bogus"}`, `{"type":"state","state":"running","attempt":-4}`,
		`{"type":"state","time":"never"}`, `null`, `42`, `"x"`, ``, "\n\n",
	} {
		f.Add([]byte(seed))
	}
	spec := []byte(`{"workload":"sgemm","scale":"tiny","tiles":1,"core":"ooo","mem":"tab2","slicing":"spmd","priority":"normal"}`)
	rec := store.JobRecord{ID: "j000001", Digest: store.Digest("j000001", spec), Priority: "normal", Spec: spec}
	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if err := st.CreateJob(rec); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "jobs", rec.Digest, "events.ndjson")
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		var intact []Event
		for _, line := range bytes.Split(log, []byte("\n")) {
			var e Event
			if json.Unmarshal(bytes.TrimSuffix(line, []byte("\r")), &e) == nil {
				intact = append(intact, e)
			}
		}
		want := foldLog(intact).State
		if !want.Terminal() {
			want = StateQueued
		}

		m := NewManager(Options{Store: st})
		j, err := m.Get(rec.ID)
		if err != nil {
			t.Fatal(err)
		}
		if got := j.State(); got != want {
			t.Errorf("recovered %s, want %s", got, want)
		}
		shutdown(t, m) // cancels a resumed job, which appends to its log
		if !want.Terminal() {
			return
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, log) {
			t.Errorf("a terminal job's log changed (%v):\n got %q\nwant %q", err, after, log)
		}
	})
}
