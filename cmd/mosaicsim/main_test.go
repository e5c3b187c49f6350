package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/soc"
)

// tilesFormConfig is a shipped config in the tiles spelling.
const tilesFormConfig = "../../configs/spmd-xeon.json"

// coresFormConfig writes the same machine the way -save-config spelled it
// before configs were normalised to tiles, and returns the file's path.
func coresFormConfig(t *testing.T) string {
	t.Helper()
	sc := &config.SystemConfig{
		Name:  "spmd-xeon",
		Cores: []config.CoreSpec{{Core: config.XeonLikeCore(), Count: 4}},
		Mem:   config.TableIMem(),
	}
	path := filepath.Join(t.TempDir(), "cores.json")
	if err := sc.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestFlagCombinations drives run through flag combinations whose handling
// lives in main.go: exit code, and what must appear on stdout or stderr.
func TestFlagCombinations(t *testing.T) {
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
		{"unknown workload", []string{"-workload", "sgem"}, 2, "", `unknown workload "sgem" (did you mean "sgemm"?); see -list`},
		// -branch is one more override on every tile, however the system is
		// named (TestBranchOverrideReachesTheRun checks it changes the run).
		{"branch with a tiles-form config", []string{"-workload", "sgemm", "-scale", "tiny", "-topology", tilesFormConfig, "-branch", "none"}, 0, "simulation result", ""},
		{"branch with a topology file", []string{"-workload", "sgemm", "-scale", "tiny", "-topology", coresFormConfig(t), "-branch", "none"}, 0, "simulation result", ""},
		{"branch with a topology preset", []string{"-workload", "sgemm", "-scale", "tiny", "-topology", "spmd-xeon", "-branch", "none"}, 0, "simulation result", ""},
		{"misspelled branch", []string{"-workload", "sgemm", "-scale", "tiny", "-branch", "dynamc"}, 1, "", `unknown branch predictor "dynamc" (did you mean "dynamic"?)`},
		{"misspelled branch on a topology", []string{"-workload", "sgemm", "-scale", "tiny", "-topology", "dae-pair", "-branch", "dynamc"}, 1, "", `unknown branch predictor "dynamc" (did you mean "dynamic"?)`},
		// -config was a second spelling of -topology <file> and is gone.
		{"topology with config", []string{"-workload", "sgemm", "-topology", "spmd-xeon", "-config", tilesFormConfig}, 2, "", "flag provided but not defined: -config"},
		{"no tiles", []string{"-workload", "sgemm", "-tiles", "0"}, 1, "", "tile count must be positive"},
		{"O with passes", []string{"-workload", "sgemm", "-O", "O2", "-passes", "cse"}, 2, "", "mutually exclusive"},
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

// TestHostileConfigSizesAreErrors: a -topology file whose window or cache size
// would have killed the process in makeslice, or whose window could never hold
// an instruction, is exit 1 naming the knob.
func TestHostileConfigSizesAreErrors(t *testing.T) {
	over := func(js string) func(*config.SystemConfig) {
		return func(sc *config.SystemConfig) {
			sc.Tiles = []config.TileDef{{Kind: "ooo", Overrides: json.RawMessage(js)}}
		}
	}
	for name, tc := range map[string]struct {
		mut  func(*config.SystemConfig)
		want string
	}{
		"huge window":       {func(sc *config.SystemConfig) { sc.Tiles[0].Core.WindowSize = 1 << 62 }, "window_size must be at most"},
		"huge cache":        {func(sc *config.SystemConfig) { sc.Mem.L2.SizeKB = 1 << 42 }, "size_kb must be at most"},
		"override window 0": {over(`{"window_size": 0}`), "window_size must be at least 1"},
		"override issue -3": {over(`{"issue_width": -3}`), "issue_width must be at least 1"},
		"override lsq -1":   {over(`{"lsq_size": -1}`), "lsq_size must be at least 1"},
	} {
		sc := config.XeonSystem(1)
		tc.mut(sc)
		path := filepath.Join(t.TempDir(), "hostile.json")
		if err := sc.Save(path); err != nil {
			t.Fatal(err)
		}
		for _, extra := range [][]string{nil, {"-noskip"}} {
			code, stdout, stderr := runCLI(append([]string{"-workload", "sgemm", "-scale", "tiny", "-topology", path}, extra...)...)
			if code != 1 || stdout != "" || !strings.Contains(stderr, tc.want) {
				t.Errorf("%s %v: exit %d, stdout %q, stderr %q; want exit 1 naming the knob", name, extra, code, stdout, stderr)
			}
		}
	}
}

// TestSaveConfigWritesTilesSpelling: -save-config writes the tiles spelling
// whatever it read, and a cores-spelling file resolves to the topology its
// rewrite does.
func TestSaveConfigWritesTilesSpelling(t *testing.T) {
	in := coresFormConfig(t)
	resolve := func(path string) *soc.Topology {
		t.Helper()
		sc, err := config.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := soc.Resolve(sc, false)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	for name, args := range map[string][]string{
		"from a cores file": {"-topology", in},
		"from flags":        {"-tiles", "4", "-core", "xeon", "-mem", "tab1", "-branch", "perfect"},
	} {
		out := filepath.Join(t.TempDir(), "out.json")
		if code, _, stderr := runCLI(append([]string{"-workload", "sgemm", "-save-config", out}, args...)...); code != 0 {
			t.Fatalf("%s: exit %d: %s", name, code, stderr)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(data, []byte(`"tiles"`)) || bytes.Contains(data, []byte(`"cores"`)) {
			t.Errorf("%s: -save-config did not write the tiles spelling:\n%s", name, data)
		}
		got, want := resolve(out), resolve(in)
		got.Name = want.Name
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the saved file resolves differently:\n got: %+v\nwant: %+v", name, got, want)
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

// TestBranchOverrideReachesTheRun: -branch changes the simulated machine (the
// Xeon-like core ships with a perfect predictor) the same way however the
// machine is named: by flags, by preset, by a file in either spelling.
func TestBranchOverrideReachesTheRun(t *testing.T) {
	var shipped, none []soc.Result
	for _, system := range [][]string{
		{"-tiles", "4", "-core", "xeon", "-mem", "tab1"},
		{"-topology", "spmd-xeon"},
		{"-topology", tilesFormConfig},
		{"-topology", coresFormConfig(t)},
	} {
		base := append([]string{"-workload", "sgemm", "-scale", "tiny"}, system...)
		shipped = append(shipped, jsonResult(t, base...))
		none = append(none, jsonResult(t, append(base, "-branch", "none")...))
	}
	if none[0].Cycles <= shipped[0].Cycles {
		t.Errorf("-branch none: %d cycles, the shipped predictor %d; no speculation should cost cycles", none[0].Cycles, shipped[0].Cycles)
	}
	for i := range shipped {
		if !reflect.DeepEqual(shipped[i], shipped[0]) || !reflect.DeepEqual(none[i], none[0]) {
			t.Errorf("system %d: the same machine simulates differently (%d / %d cycles, want %d / %d)",
				i, shipped[i].Cycles, none[i].Cycles, shipped[0].Cycles, none[0].Cycles)
		}
	}
}
