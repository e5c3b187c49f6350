package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"
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
