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

// TestBootsOverDamagedArtifact: a -data-dir holding a trace blob whose BB
// path count lies (2^62 entries in 18 bytes — it used to kill recovery in
// makeslice) boots, logs the blob as skipped, serves a job and drains.
func TestBootsOverDamagedArtifact(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := `{"kind":"trace","key":{}}` + "\nMSTR\x01\x00\x01\x00\x00\x80\x80\x80\x80\x80\x80\x80\x80\x40"
	if _, err := st.PutArtifact("trace-damaged", []byte(blob)); err != nil {
		t.Fatal(err)
	}
	st.Close()

	var stdout, stderr syncBuffer
	exit := make(chan int, 1)
	go func() {
		exit <- run([]string{"-addr", "127.0.0.1:0", "-data-dir", dir, "-workers", "1"}, &stdout, &stderr)
	}()
	// run has installed its SIGTERM handler by the time it logs the address.
	var base string
	listening := regexp.MustCompile(`listening on (\S+)`)
	for deadline := time.Now().Add(10 * time.Second); base == ""; time.Sleep(10 * time.Millisecond) {
		if m := listening.FindStringSubmatch(stderr.String()); m != nil {
			base = "http://" + m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon never listened:\n%s", stderr.String())
		}
	}
	if log := stderr.String(); !strings.Contains(log, "artifact trace-damaged: sim: import trace-damaged: trace: decoding block id: unexpected EOF (skipped)") {
		t.Errorf("the damaged blob was not logged as skipped:\n%s", log)
	}

	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"sgemm","scale":"tiny","tiles":2}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	m := regexp.MustCompile(`"id": *"([^"]+)"`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("submit returned no job id: %s", body)
	}
	// The event stream ends when the job is terminal.
	if resp, err = http.Get(base + "/v1/jobs/" + string(m[1]) + "/events"); err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp, err = http.Get(base + "/v1/jobs/" + string(m[1])); err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(body, []byte(`"state": "done"`)) || !bytes.Contains(body, []byte(`"Cycles"`)) {
		t.Errorf("job did not finish with a report: %s", body)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-exit:
		if code != 0 || !strings.Contains(stdout.String(), "drained cleanly") {
			t.Errorf("exit %d, stdout %q:\n%s", code, stdout.String(), stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not drain:\n%s", stderr.String())
	}
}
