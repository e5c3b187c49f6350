package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json and spec.go must name the same workloads and metrics, with
// the same units, directions and bounds, in the same order.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is not made of letters, digits, _ . - (at most 64)", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bj.Workloads), len(workloadDefs))
	}
	for i, w := range bj.Workloads {
		name("workload", w.Name)
		if d := workloadDefs[i]; w.Name != d.Name || w.Why != d.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, w.Name, w.Why, d.Name, d.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	for i, m := range bj.EndToEnd {
		name("end-to-end metric", m.Name)
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, spec.go %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}

	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(bj.PerLayer), len(perLayer))
	}
	if len(bj.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(bj.PerLayer))
	}
	for i, m := range bj.PerLayer {
		name("per-layer metric", m.Name)
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, spec.go %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
	}

	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bj.RunSeconds)
	}
	// The driver makes 4 + 22 x workloads runs inside 3420 seconds, builds
	// included; leave each run half as much again as it measures for.
	if runs := 4 + 22*len(bj.Workloads); float64(runs*bj.RunSeconds)*1.5 > 3420 {
		t.Errorf("%d runs of %ds do not fit the driver's 3420s with set-up and builds", runs, bj.RunSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
}

// Every metric the spec names must be produced somewhere in the code, and
// the code must produce no metric the spec does not name. The second half is
// enforced when a run happens (results.layer panics on an unknown name) and
// here statically, over every string literal handed to layer, na or probe.
func TestEveryMetricIsEmittedAndNamed(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	literals := map[string]bool{} // every string literal outside spec.go
	emitted := map[string]bool{}  // literals passed as a metric name
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") || name == "spec.go" {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BasicLit:
				if n.Kind == token.STRING {
					if s, err := strconv.Unquote(n.Value); err == nil {
						literals[s] = true
					}
				}
			case *ast.CallExpr:
				arg := -1
				switch fn := n.Fun.(type) {
				case *ast.SelectorExpr:
					if fn.Sel.Name == "layer" || fn.Sel.Name == "na" || fn.Sel.Name == "sampled" {
						arg = 0
					}
				case *ast.Ident:
					if fn.Name == "probe" {
						arg = 1
					}
				}
				if arg >= 0 && arg < len(n.Args) {
					if lit, ok := n.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						if s, err := strconv.Unquote(lit.Value); err == nil {
							emitted[s] = true
						}
					}
				}
			}
			return true
		})
	}
	known := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		known[m.Name] = true
		if !literals[m.Name] {
			t.Errorf("metric %s is in spec.go but no code outside it mentions the name", m.Name)
		}
	}
	for n := range emitted {
		if !known[n] {
			t.Errorf("the code emits metric %q, which spec.go does not name", n)
		}
	}
}
