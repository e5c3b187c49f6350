package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/soc"
)

// tilesFormConfig is a shipped config in the declarative tiles form.
const tilesFormConfig = "../../configs/spmd-xeon.json"

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFlagCombinations drives run through flag combinations whose handling
// lives in main.go: exit code, and what must appear on stdout or stderr.
func TestFlagCombinations(t *testing.T) {
	const noBranchOverride = "-branch cannot override a declarative topology"
	for _, tc := range []struct {
		name   string
		args   []string
		code   int
		stdout string
		stderr string
	}{
		{"no arguments", nil, 2, "", "need -workload"},
		{"list", []string{"-list"}, 0, "sgemm", ""},
		{"tiny run", []string{"-workload", "sgemm", "-scale", "tiny"}, 0, "simulation result", ""},
		{"replay off", []string{"-workload", "sgemm", "-scale", "tiny", "-replay=false"}, 0, "cycles stepped", ""},
		{"unknown workload", []string{"-workload", "sgem"}, 2, "", `did you mean "sgemm"?`},
		// -branch rewrites the cores form only: on a tiles-form file it used
		// to be dropped silently; it is the error -topology always gave.
		{"branch with a tiles-form config", []string{"-workload", "sgemm", "-scale", "tiny", "-config", tilesFormConfig, "-branch", "none"}, 1, "", noBranchOverride},
		{"branch with a topology file", []string{"-workload", "sgemm", "-scale", "tiny", "-topology", tilesFormConfig, "-branch", "none"}, 1, "", noBranchOverride},
		{"branch with a topology preset", []string{"-workload", "sgemm", "-scale", "tiny", "-topology", "spmd-xeon", "-branch", "none"}, 1, "", noBranchOverride},
		{"misspelled branch", []string{"-workload", "sgemm", "-scale", "tiny", "-branch", "dynamc"}, 1, "", `unknown branch predictor "dynamc" (did you mean "dynamic"?)`},
		{"topology with config", []string{"-workload", "sgemm", "-topology", "spmd-xeon", "-config", tilesFormConfig}, 1, "", "-topology and -config are mutually exclusive"},
		{"O with passes", []string{"-workload", "sgemm", "-O", "O2", "-passes", "dce"}, 2, "", "mutually exclusive"},
		// -noreplay was a second spelling of -replay=false and is gone.
		{"noreplay", []string{"-workload", "sgemm", "-noreplay"}, 2, "", "flag provided but not defined: -noreplay"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := runCLI(tc.args...)
			if code != tc.code {
				t.Errorf("exit code %d, want %d (stderr: %s)", code, tc.code, stderr)
			}
			if !strings.Contains(stdout, tc.stdout) {
				t.Errorf("stdout does not contain %q:\n%s", tc.stdout, stdout)
			}
			if !strings.Contains(stderr, tc.stderr) {
				t.Errorf("stderr does not contain %q:\n%s", tc.stderr, stderr)
			}
			if tc.code != 0 && stdout != "" {
				t.Errorf("a failed run wrote to stdout:\n%s", stdout)
			}
		})
	}
}

// TestHostileConfigSizesAreErrors: a -config whose window or cache size would
// have killed the process in makeslice is exit 1 naming the knob.
func TestHostileConfigSizesAreErrors(t *testing.T) {
	for field, mut := range map[string]func(*config.SystemConfig){
		"window_size": func(sc *config.SystemConfig) { sc.Cores[0].Core.WindowSize = 1 << 62 },
		"size_kb":     func(sc *config.SystemConfig) { sc.Mem.L2.SizeKB = 1 << 42 },
	} {
		sc := config.XeonSystem(1)
		mut(sc)
		path := filepath.Join(t.TempDir(), "hostile.json")
		if err := sc.Save(path); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := runCLI("-workload", "sgemm", "-scale", "tiny", "-config", path)
		if code != 1 || stdout != "" || !strings.Contains(stderr, field+" must be at most") {
			t.Errorf("%s: exit %d, stdout %q, stderr %q; want exit 1 naming the knob", field, code, stdout, stderr)
		}
	}
}

// jsonResult runs with -json and decodes stdout, which must be exactly one
// soc.Result.
func jsonResult(t *testing.T, args ...string) soc.Result {
	t.Helper()
	code, stdout, stderr := runCLI(append(args, "-json")...)
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr)
	}
	dec := json.NewDecoder(strings.NewReader(stdout))
	dec.DisallowUnknownFields()
	var res soc.Result
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("-json output does not parse as a soc.Result: %v\n%s", err, stdout)
	}
	if dec.More() {
		t.Errorf("-json output carries more than the result:\n%s", stdout)
	}
	return res
}

func TestJSONOutputIsTheResult(t *testing.T) {
	res := jsonResult(t, "-workload", "sgemm", "-scale", "tiny", "-tiles", "2")
	if res.Cycles <= 0 || res.Instrs <= 0 || len(res.CoreStats) != 2 {
		t.Errorf("implausible result: %d cycles, %d instrs, %d core stats", res.Cycles, res.Instrs, len(res.CoreStats))
	}
}

// TestBranchOverrideReachesTheRun: where -branch is accepted it changes the
// simulated machine (the Xeon-like core ships with a static predictor).
func TestBranchOverrideReachesTheRun(t *testing.T) {
	base := []string{"-workload", "sgemm", "-scale", "tiny", "-tiles", "4", "-core", "xeon", "-mem", "tab1"}
	asShipped := jsonResult(t, base...)
	none := jsonResult(t, append(base, "-branch", "none")...)
	if none.Cycles <= asShipped.Cycles {
		t.Errorf("-branch none: %d cycles, the shipped predictor %d; no speculation should cost cycles", none.Cycles, asShipped.Cycles)
	}
}
