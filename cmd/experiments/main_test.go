package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// TestStorageTableMatchesRecord: `experiments -run storage -scale small
// -jobs 1` prints the §VI-B trace storage block of experiments_small.txt byte
// for byte, so a change to the trace encoding must regenerate the record.
func TestStorageTableMatchesRecord(t *testing.T) {
	record, err := os.ReadFile("../../experiments_small.txt")
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.Index(record, []byte("== §VI-B — trace storage"))
	if start < 0 {
		t.Fatal("experiments_small.txt has no §VI-B trace storage block")
	}
	want := record[start:]
	want = want[:bytes.Index(want, []byte("\n\n"))+2] // through the blank line that ends it
	var stdout, stderr strings.Builder
	if code := run([]string{"-run", "storage", "-scale", "small", "-jobs", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if stdout.String() != string(want) {
		t.Errorf("the storage table differs from experiments_small.txt:\n%s\nwant:\n%s", stdout.String(), want)
	}
}

// TestBadCommandLine: an unknown flag or experiment id exits 2 before any
// experiment runs, and -h exits 0.
func TestBadCommandLine(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-nosuchflag"}, 2}, {[]string{"-run", "fig99"}, 2}, {[]string{"-scale", "huge"}, 2}, {[]string{"-h"}, 0},
	} {
		var stdout, stderr strings.Builder
		if code := run(tc.args, &stdout, &stderr); code != tc.code || stdout.Len() != 0 {
			t.Errorf("%v: exit %d with %d bytes on stdout, want exit %d and none", tc.args, code, stdout.Len(), tc.code)
		}
	}
}
