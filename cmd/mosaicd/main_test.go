package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mosaicsim/internal/store"
)

// TestFlagTable drives the command line through parseFlags and run: what a
// bad one exits with and says, and how many execution slots a good one
// resolves to. Every failing case returns before anything is started.
func TestFlagTable(t *testing.T) {
	const worker = "-role=worker -coordinator=http://127.0.0.1:1"
	for _, tc := range []struct {
		name   string
		args   string
		code   int
		stderr string
		slots  int // checked when code is 0 and the case is not -h
	}{
		{name: "unknown role", args: "-role wroker", code: 2, stderr: `unknown -role "wroker" (want standalone, coordinator, or worker)`},
		{name: "worker without coordinator", args: "-role worker", code: 2, stderr: "-role worker requires -coordinator URL"},
		{name: "unknown flag", args: "-step-workers 4", code: 2, stderr: "flag provided but not defined: -step-workers"},
		{name: "help", args: "-h", code: 0, stderr: "-lease-ttl"},
		// What benchmark/service.go and the smoke scripts start workers with.
		{name: "worker, workers and slots", args: worker + " -name w1 -workers 1 -slots 1", slots: 1},
		{name: "slots override workers", args: worker + " -workers 1 -slots 3", slots: 3},
		{name: "slots alone", args: worker + " -slots 2", slots: 2},
		{name: "workers alone", args: worker + " -workers 5", slots: 5},
		{name: "neither", args: worker, slots: runtime.NumCPU()},
		{name: "standalone workers", args: "-workers 2 -queue 16 -cache-entries 64", slots: 2},
		{name: "standalone default", args: "", slots: runtime.NumCPU()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := strings.Fields(tc.args)
			var errb bytes.Buffer
			c, code := parseFlags(args, &errb)
			if code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, errb.String())
			}
			if !strings.Contains(errb.String(), tc.stderr) {
				t.Errorf("stderr does not contain %q:\n%s", tc.stderr, errb.String())
			}
			if tc.slots == 0 {
				if c != nil {
					t.Fatalf("a rejected command line still resolved to %+v", c)
				}
				// run must stop at the same point, having written nothing to stdout.
				var out, errb2 bytes.Buffer
				if got := run(args, &out, &errb2); got != tc.code || out.Len() != 0 || errb2.String() != errb.String() {
					t.Errorf("run = %d, stdout %q, stderr %q; want what parseFlags gave", got, out.String(), errb2.String())
				}
				return
			}
			if c == nil {
				t.Fatal("no config")
			}
			if c.slots != tc.slots {
				t.Errorf("slots = %d, want %d", c.slots, tc.slots)
			}
		})
	}
}

// syncBuffer is a bytes.Buffer the daemon's goroutines can log into while the
// test reads it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestBootsOverDamagedArtifact: a -data-dir holding a trace blob whose path
// counts lie (2^62 blocks and bits in 27 bytes — a count like it used to kill
// recovery in makeslice) boots, logs the blob as skipped, serves a job and
// drains.
func TestBootsOverDamagedArtifact(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := `{"kind":"trace","key":{}}` + "\nMSTR\x04\x00\x01\x00\x00" + strings.Repeat("\x80\x80\x80\x80\x80\x80\x80\x80\x40", 2)
	if _, err := st.PutArtifact("trace-damaged", []byte(blob)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	d := boot(t, dir)
	if log := d.stderr.String(); !strings.Contains(log, "artifact trace-damaged: sim: import trace-damaged: trace: decoding path bits: unexpected EOF (skipped)") {
		t.Errorf("the damaged blob was not logged as skipped:\n%s", log)
	}
	d.serveOne(t)
	d.drain(t)
}

// TestBootsOverPoisonedQueuedJob: a -data-dir holding a queued job whose
// topology sizes a 2^62-entry window (an older build admitted it, died in
// core.New's makeslice on the lease goroutine, and re-ran it at every boot:
// three restarts, three exits) boots, fails that job, serves another and
// drains.
func TestBootsOverPoisonedQueuedJob(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := []byte(`{"workload":"sgemm","scale":"tiny","topology":{"name":"x","tiles":[{"kind":"ooo","overrides":{"window_size":4611686018427387904}}],` +
		`"mem":{"l1":{"name":"L1","size_kb":32,"line_bytes":64,"assoc":8},"dram":{"model":"simple","min_latency":100,"bandwidth_gbs":24}}}}`)
	rec := store.JobRecord{ID: "j000001", Digest: store.Digest("j000001", spec), Submitted: time.Now(), Spec: spec}
	if err := st.CreateJob(rec); err != nil {
		t.Fatal(err)
	}
	st.Close()

	d := boot(t, dir)
	// The stream of the recovered job ends when it is terminal.
	if body := d.await(t, "j000001"); !bytes.Contains(body, []byte(`"state": "failed"`)) || !bytes.Contains(body, []byte("window_size must be at most 65536")) {
		t.Errorf("the poisoned job did not fail naming its knob: %s", body)
	}
	d.serveOne(t)
	d.drain(t)
}

// daemon is one run() under test, listening on base.
type daemon struct {
	base           string
	stdout, stderr syncBuffer
	exit           chan int
}

// boot starts a standalone daemon on dir and waits until it listens.
func boot(t *testing.T, dir string) *daemon {
	t.Helper()
	d := &daemon{exit: make(chan int, 1)}
	go func() {
		d.exit <- run([]string{"-addr", "127.0.0.1:0", "-data-dir", dir, "-workers", "1"}, &d.stdout, &d.stderr)
	}()
	// run has installed its SIGTERM handler by the time it logs the address.
	listening := regexp.MustCompile(`listening on (\S+)`)
	for deadline := time.Now().Add(10 * time.Second); d.base == ""; time.Sleep(10 * time.Millisecond) {
		if m := listening.FindStringSubmatch(d.stderr.String()); m != nil {
			d.base = "http://" + m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never listened:\n%s", d.stderr.String())
		}
	}
	return d
}

// await follows job id's event stream to its end (the job is terminal) and
// returns its status.
func (d *daemon) await(t *testing.T, id string) []byte {
	t.Helper()
	resp, err := http.Get(d.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp, err = http.Get(d.base + "/v1/jobs/" + id); err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return body
}

// serveOne submits a job and requires it to finish with a report.
func (d *daemon) serveOne(t *testing.T) {
	t.Helper()
	resp, err := http.Post(d.base+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"sgemm","scale":"tiny","tiles":2}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m := regexp.MustCompile(`"id": *"([^"]+)"`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("submit returned no job id: %s", body)
	}
	if body = d.await(t, string(m[1])); !bytes.Contains(body, []byte(`"state": "done"`)) || !bytes.Contains(body, []byte(`"Cycles"`)) {
		t.Errorf("job did not finish with a report: %s", body)
	}
}

// drain SIGTERMs the daemon and requires a clean exit.
func (d *daemon) drain(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-d.exit:
		if code != 0 || !strings.Contains(d.stdout.String(), "drained cleanly") {
			t.Errorf("exit %d, stdout %q:\n%s", code, d.stdout.String(), d.stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain:\n%s", d.stderr.String())
	}
}
