package config_test

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"mosaicsim/internal/cc"
	. "mosaicsim/internal/config"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/interp"
	"mosaicsim/internal/soc"
)

// TestTopologyRoundTrip checks Save → Load is lossless for every named
// topology preset: the reloaded config validates and marshals to the same
// bytes as the original.
func TestTopologyRoundTrip(t *testing.T) {
	dir := t.TempDir()
	for _, name := range TopologyPresets() {
		sc, err := TopologyPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := validate(sc); err != nil {
			t.Fatalf("preset %s does not validate: %v", name, err)
		}
		path := filepath.Join(dir, name+".json")
		if err := sc.Save(path); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := validate(got); err != nil {
			t.Errorf("reloaded %s does not validate: %v", name, err)
		}
		want, _ := json.Marshal(sc)
		have, _ := json.Marshal(got)
		if string(want) != string(have) {
			t.Errorf("%s round-trip lost information:\nbefore: %s\n after: %s", name, want, have)
		}
	}
}

// TestLoadNamesUnknownFields: a topology file that misspells a knob, or still
// carries one that was retired, fails to load with the field named — it used
// to load with the knob silently ignored.
func TestLoadNamesUnknownFields(t *testing.T) {
	for _, tc := range []struct{ body, field string }{
		{`{"name":"x","tiles":[{"kind":"ooo"}],"step_workers":4}`, "step_workers"},
		{`{"name":"x","tiles":[{"kind":"ooo"}],"fabric_latancy":0}`, "fabric_latancy"},
		{`{"name":"x","tiles":[{"kind":"ooo","cout":2}]}`, "cout"},
		{`{"name":"x","tiles":[{"kind":"ooo"}],"mem":{"l1":{"size_kbb":32}}}`, "size_kbb"},
	} {
		if _, err := Parse([]byte(tc.body)); err == nil || !strings.Contains(err.Error(), `unknown field "`+tc.field+`"`) {
			t.Errorf("%s: want an error naming %q, got %v", tc.body, tc.field, err)
		}
	}
}

func TestTopologyPresetDidYouMean(t *testing.T) {
	if _, err := TopologyPreset("dae-par"); err == nil ||
		!strings.Contains(err.Error(), `did you mean "dae-pair"`) {
		t.Errorf("want did-you-mean for preset, got %v", err)
	}
}

// TestTileDefValidation walks the declarative form's rejection paths: every
// malformed topology must fail Validate with a message naming the problem.
func TestTileDefValidation(t *testing.T) {
	mem := TableIIMem()
	slot := func(s int) *int { return &s }
	cases := []struct {
		name string
		sc   SystemConfig
		want string
	}{
		{"empty", SystemConfig{Name: "x", Mem: mem}, "no cores or tiles"},
		{"both forms", SystemConfig{Name: "x", Mem: mem,
			Cores: []CoreSpec{{Core: InOrderCore(), Count: 1}},
			Tiles: []TileDef{{Kind: "ooo"}}}, "not both"},
		{"negative count", SystemConfig{Name: "x", Mem: mem,
			Tiles: []TileDef{{Kind: "ooo", Count: -2}}}, "negative count"},
		{"negative count beside a huge one", SystemConfig{Name: "x", Mem: mem,
			Tiles: []TileDef{{Kind: "ooo", Count: 1 << 40}, {Kind: "ooo", Count: -1}}}, "negative count"},
		{"kindless", SystemConfig{Name: "x", Mem: mem,
			Tiles: []TileDef{{}}}, "needs a kind"},
		{"negative clock", SystemConfig{Name: "x", Mem: mem,
			Tiles: []TileDef{{Kind: "ooo", ClockMHz: -1}}}, "clock must be positive"},
		{"bad role", SystemConfig{Name: "x", Mem: mem,
			Tiles: []TileDef{{Kind: "ooo", Role: "acess"}}}, "unknown role"},
		{"unpaired dae", SystemConfig{Name: "x", Mem: mem,
			Tiles: []TileDef{{Kind: "inorder", Role: RoleAccess}}}, "must form pairs"},
		{"execute first", SystemConfig{Name: "x", Mem: mem,
			Tiles: []TileDef{
				{Kind: "inorder", Role: RoleExecute},
				{Kind: "inorder", Role: RoleAccess}}}, "alternate"},
		{"slot multi-count", SystemConfig{Name: "x", Mem: mem,
			Tiles: []TileDef{{Kind: "ooo", Count: 2, MeshSlot: slot(0)}},
			NoC:   &NoCConfig{MeshWidth: 2, HopCycles: 1}}, "requires count 1"},
		{"slot without noc", SystemConfig{Name: "x", Mem: mem,
			Tiles: []TileDef{{Kind: "ooo", MeshSlot: slot(0)}}}, "no NoC"},
		{"partial pinning", SystemConfig{Name: "x", Mem: mem,
			Tiles: []TileDef{{Kind: "ooo", MeshSlot: slot(0)}, {Kind: "ooo"}},
			NoC:   &NoCConfig{MeshWidth: 2, HopCycles: 1}}, "every tile pins"},
		{"undersized mesh", SystemConfig{Name: "x", Mem: mem,
			Tiles: []TileDef{{Kind: "ooo", Count: 5}},
			NoC:   &NoCConfig{MeshWidth: 2, HopCycles: 1}}, "4 slots but the system has 5 tiles"},
		{"off-grid slot", SystemConfig{Name: "x", Mem: mem,
			Tiles: []TileDef{{Kind: "ooo", MeshSlot: slot(4)}},
			NoC:   &NoCConfig{MeshWidth: 2, HopCycles: 1}}, "outside"},
		{"duplicate slot", SystemConfig{Name: "x", Mem: mem,
			Tiles: []TileDef{{Kind: "ooo", MeshSlot: slot(1)}, {Kind: "ooo", MeshSlot: slot(1)}},
			NoC:   &NoCConfig{MeshWidth: 2, HopCycles: 1}}, "pinned twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validate(&tc.sc)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestLegacyMeshStillValidated keeps the geometry check on the legacy Cores
// form too: an undersized mesh is an error regardless of declaration style.
func TestLegacyMeshStillValidated(t *testing.T) {
	sc := SystemConfig{
		Name:  "legacy",
		Cores: []CoreSpec{{Core: OutOfOrderCore(), Count: 5}},
		Mem:   TableIIMem(),
		NoC:   &NoCConfig{MeshWidth: 2, HopCycles: 4},
	}
	if err := validate(&sc); err == nil {
		t.Error("legacy Cores config with undersized mesh validated")
	}
}

// FuzzTopologyLoad drives the topology loader with arbitrary JSON: Parse and
// Resolve must never panic, anything that loads and validates must survive a
// Save → Load → marshal round trip unchanged, and anything that resolves must
// build against a trace of as many tiles: resolution leaves no topology or
// geometry error for the builder to find.
func FuzzTopologyLoad(f *testing.F) {
	for _, name := range TopologyPresets() {
		sc, err := TopologyPreset(name)
		if err != nil {
			f.Fatal(err)
		}
		b, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"name":"x","tiles":[{"kind":"oo"}]}`))
	f.Add([]byte(`{"name":"x","tiles":[{"kind":"ooo","mesh_slot":9}]}`))
	f.Add([]byte(`{not json`))
	f.Add([]byte(`{"name":"x","cores":[{"count":-1}]}`))
	mem := `"mem":{"l1":{"size_kb":32,"line_bytes":64,"assoc":8},"dram":{"model":"simple"}}`
	for _, over := range []string{`"window_size":0`, `"window_size":-4`, `"issue_width":0`, `"issue_width":-3`, `"lsq_size":-1`} {
		f.Add([]byte(`{"name":"x","tiles":[{"kind":"ooo","overrides":{` + over + `}}],` + mem + `}`))
	}
	f.Add([]byte(`{"name":"x","tiles":[{"kind":"ooo","mesh_slot":3},{"kind":"inorder","mesh_slot":0}],"noc":{"mesh_width":2},` + mem + `}`))
	mod, err := cc.Compile("void kernel() {}", "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	kernel := mod.Func("kernel")
	g := ddg.Build(kernel)
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, err := Parse(data)
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		if sc.Validate() == nil {
			out := filepath.Join(t.TempDir(), "out.json")
			if err := sc.Save(out); err != nil {
				t.Fatalf("valid config failed to save: %v", err)
			}
			back, err := Load(out)
			if err != nil {
				t.Fatalf("saved config failed to reload: %v", err)
			}
			want, _ := json.Marshal(sc)
			have, _ := json.Marshal(back)
			if string(want) != string(have) {
				t.Errorf("round trip not stable:\nbefore: %s\n after: %s", want, have)
			}
		}
		topo, err := soc.Resolve(sc, false)
		if err != nil || len(topo.Tiles) > 16 {
			return
		}
		for _, rt := range topo.Tiles {
			if rt.Cfg.WindowSize > 4096 || rt.Cfg.LSQSize > 4096 {
				return // Build sizes every window; geometry is what is checked here
			}
		}
		res, err := interp.Run(kernel, interp.NewMemory(1<<12), nil, interp.Options{NumTiles: len(topo.Tiles)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := soc.Build(topo, soc.Binding{Graph: g, Access: g, Execute: g, Trace: res.Trace}, nil); err != nil {
			t.Errorf("resolved topology does not build: %v", err)
		}
	})
}
