package main

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFlagTable drives the command line through run: what a bad one exits
// with and says (on stderr only, and never a stack), and what a good one
// prints.
func TestFlagTable(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, data []byte) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := filepath.Join(dir, "good.mstr")
	if code, _, stderr := runCmd("-workload", "histo", "-scale", "tiny", "-tiles", "2", "-o", good); code != 0 {
		t.Fatalf("writing a trace: exit %d: %s", code, stderr)
	}
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	truncated := write("truncated.mstr", data[:len(data)/2])
	// A header, one tile, and a path that claims 2^62 blocks and bits.
	lying := write("lying.mstr", binary.AppendUvarint(binary.AppendUvarint([]byte("MSTR\x04\x00\x01\x00\x00"), 1<<62), 1<<62))
	// histo at tiny scale on two tiles, as commit 6188979 wrote it (version 1).
	const older = "../../internal/trace/testdata/histo_tiny_2t_6188979.mstr"
	hot5, err := os.ReadFile("testdata/sgemm_tiny_hot5.golden") // printed by commit 6188979
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string // exact when code is 0 and non-empty
		stderr string // substring
	}{
		{name: "neither -workload nor -read", code: 2, stderr: "need -workload or -read; see -h"},
		{name: "-O with -passes", args: []string{"-workload", "sgemm", "-O", "O2", "-passes", "cse"}, code: 2, stderr: "-O and -passes are mutually exclusive"},
		{name: "unknown opt level", args: []string{"-workload", "sgemm", "-O", "O9"}, code: 2, stderr: "O9"},
		{name: "unknown workload", args: []string{"-workload", "sgem"}, code: 2, stderr: "unknown workload \"sgem\" (did you mean \"sgemm\"?)\n"},
		{name: "unknown flag", args: []string{"-step-workers", "4"}, code: 2, stderr: "flag provided but not defined: -step-workers"},
		{name: "help", args: []string{"-h"}, code: 0, stderr: "-workload"},
		{name: "-read of a missing file", args: []string{"-read", filepath.Join(dir, "absent.mstr")}, code: 1, stderr: "no such file"},
		{name: "-read of a truncated file", args: []string{"-read", truncated}, code: 1, stderr: "mosaic-trace: trace: decoding"},
		{name: "-read of a count-corrupted file", args: []string{"-read", lying}, code: 1, stderr: "mosaic-trace: trace: decoding path bits: unexpected EOF"},
		{name: "-read of an older build's file", args: []string{"-read", older}, code: 1,
			stderr: "mosaic-trace: trace: decoding version: version 1: an older build's format: regenerate the trace with mosaic-trace -workload W -o " + older + "\n"},
		{name: "hot spots as the older build printed them", args: []string{"-workload", "sgemm", "-scale", "tiny", "-hot", "5"}, stdout: string(hot5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCmd(tc.args...)
			if code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if !strings.Contains(stderr, tc.stderr) || strings.Contains(stderr, "goroutine ") {
				t.Errorf("stderr = %q, want it to contain %q and no stack", stderr, tc.stderr)
			}
			if tc.code != 0 && stdout != "" {
				t.Errorf("a failed run wrote to stdout: %q", stdout)
			}
			if tc.stdout != "" && stdout != tc.stdout {
				t.Errorf("stdout:\n%s\nwant:\n%s", stdout, tc.stdout)
			}
		})
	}
}

// TestWriteThenRead: -o then -read summarize the same trace in the same words.
func TestWriteThenRead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bfs.mstr")
	code, wrote, stderr := runCmd("-workload", "bfs", "-scale", "tiny", "-tiles", "4", "-O", "O2", "-o", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	code, read, stderr := runCmd("-read", path)
	if code != 0 {
		t.Fatalf("-read: exit %d: %s", code, stderr)
	}
	// The writer's output is "opt:" line, the summary, then "wrote ...".
	_, summary, _ := strings.Cut(wrote, "\n")
	summary, _, _ = strings.Cut(summary, "wrote ")
	if read != summary || !strings.Contains(read, "total: ") {
		t.Errorf("-read printed:\n%s\nthe writer printed:\n%s", read, summary)
	}
}
