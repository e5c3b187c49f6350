package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFlagTable drives the command line through run: what a bad one exits
// with and says (on stderr only), and how a good one's output starts.
func TestFlagTable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		prefix string // of stdout
		stdout string // substring
		stderr string // substring
	}{
		{name: "neither -workload nor -src", code: 2, stderr: "need -workload or -src; see -h"},
		{name: "unknown workload", args: []string{"-workload", "sgem"}, code: 2, stderr: "unknown workload \"sgem\" (did you mean \"sgemm\"?)\n"},
		{name: "-O with -passes", args: []string{"-workload", "sgemm", "-O", "O2", "-passes", "cse"}, code: 2, stderr: "-O and -passes are mutually exclusive"},
		{name: "unknown opt level", args: []string{"-workload", "sgemm", "-O", "7"}, code: 2, stderr: "7"},
		{name: "statistics", args: []string{"-workload", "sgemm"}, prefix: "opt: O0\n", stdout: "nodes (static instructions)  48"},
		{name: "-dot", args: []string{"-workload", "sgemm", "-dot"}, prefix: "digraph"},
		{name: "-ir", args: []string{"-workload", "sgemm", "-ir"}, prefix: "func @kernel"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run(tc.args, &out, &errb)
			stdout, stderr := out.String(), errb.String()
			if code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr = %q, want it to contain %q", stderr, tc.stderr)
			}
			if tc.code != 0 && stdout != "" {
				t.Errorf("a failed run wrote to stdout: %q", stdout)
			}
			if !strings.HasPrefix(stdout, tc.prefix) || !strings.Contains(stdout, tc.stdout) {
				t.Errorf("stdout = %.200q, want it to start %q and contain %q", stdout, tc.prefix, tc.stdout)
			}
		})
	}
}
