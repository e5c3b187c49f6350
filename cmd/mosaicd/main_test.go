package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
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
