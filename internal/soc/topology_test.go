package soc

import (
	"context"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"mosaicsim/internal/config"
)

// TestConfigsDirectoryTopologies loads every example topology shipped under
// configs/, resolves it, and checks it stays in sync with the preset of the
// same name. This is the CI gate for the
// example files: an edit that breaks a file (or drifts from the preset)
// fails here.
func TestConfigsDirectoryTopologies(t *testing.T) {
	paths, err := filepath.Glob("../../configs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 3 {
		t.Fatalf("expected the three example topologies under configs/, found %v", paths)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			sc, err := config.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Resolve(sc, false)
			if err != nil {
				t.Fatalf("%s does not resolve: %v", path, err)
			}
			preset, err := config.TopologyPreset(name)
			if err != nil {
				t.Fatalf("no preset backs %s: %v", path, err)
			}
			want, err := Resolve(preset, false)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s drifted from preset %q:\n file: %+v\npreset: %+v", path, name, got, want)
			}
		})
	}
}

func TestUnknownTileKindDidYouMean(t *testing.T) {
	sc := &config.SystemConfig{
		Name:  "typo",
		Tiles: []config.TileDef{{Kind: "oo"}},
		Mem:   config.TableIIMem(),
	}
	_, err := Resolve(sc, false)
	if err == nil || !strings.Contains(err.Error(), `did you mean "ooo"`) {
		t.Errorf("want did-you-mean for kind \"oo\", got %v", err)
	}
}

func TestBadClockRejected(t *testing.T) {
	cases := []config.TileDef{
		{Kind: "ooo", ClockMHz: -5},
		{Core: &config.CoreConfig{Name: "clockless", IssueWidth: 1, WindowSize: 8, LSQSize: 4}},
	}
	for i, td := range cases {
		sc := &config.SystemConfig{Name: "badclock", Tiles: []config.TileDef{td}, Mem: config.TableIIMem()}
		if _, err := Resolve(sc, false); err == nil || !strings.Contains(err.Error(), "clock must be positive") {
			t.Errorf("case %d: want positive-clock error, got %v", i, err)
		}
	}
}

func TestOverridesAreStrict(t *testing.T) {
	sc := &config.SystemConfig{
		Name: "strict",
		Tiles: []config.TileDef{{
			Kind:      "inorder",
			Overrides: json.RawMessage(`{"window_sise": 64}`),
		}},
		Mem: config.TableIIMem(),
	}
	if _, err := Resolve(sc, false); err == nil || !strings.Contains(err.Error(), "bad overrides") {
		t.Errorf("want strict-decode error for misspelled override, got %v", err)
	}
}

// TestDeclarativeMatchesLegacy pins the two input spellings to one internal
// form: each cores config and its tiles twin resolve to DeepEqual Topologies
// and simulate to byte-equal Results.
func TestDeclarativeMatchesLegacy(t *testing.T) {
	g, tr := traceSPMD(t, spmdVecAdd, 2, vecSetup(512), nil)
	slow := config.InOrderCore()
	slow.ClockMHz = 1000
	slow.Latencies = map[string]int64{"fp_alu": 5}
	lat := int64(3)
	for name, pair := range map[string][2]*config.SystemConfig{
		"kind": {
			{Name: "m", Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 2}}, Mem: config.TableIIMem()},
			{Name: "m", Tiles: []config.TileDef{{Kind: "ooo", Count: 2}}, Mem: config.TableIIMem()},
		},
		"explicit cores on a mesh": {
			{Name: "m", Cores: []config.CoreSpec{{Core: config.XeonLikeCore(), Count: 1}, {Core: slow, Count: 1}},
				Mem: config.TableIMem(), NoC: &config.NoCConfig{MeshWidth: 2, HopCycles: 3}, FabricLatency: &lat},
			{Name: "m", Tiles: []config.TileDef{{Kind: "xeon"}, {Core: &slow}},
				Mem: config.TableIMem(), NoC: &config.NoCConfig{MeshWidth: 2, HopCycles: 3}, FabricLatency: &lat},
		},
		"overrides": {
			{Name: "m", Cores: []config.CoreSpec{{Core: slow, Count: 2}}, Mem: config.TableIIMem()},
			{Name: "m", Tiles: []config.TileDef{{Kind: "inorder", Count: 2, ClockMHz: 1000,
				Overrides: json.RawMessage(`{"latencies": {"fp_alu": 5}}`)}}, Mem: config.TableIIMem()},
		},
	} {
		var topos [2]*Topology
		var results [2][]byte
		for i, sc := range pair {
			topo, err := Resolve(sc, false)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sys, err := Build(topo, Binding{Graph: g, Trace: tr}, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := sys.Run(context.Background(), 200_000_000); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			topos[i] = topo
			results[i], _ = json.Marshal(sys.Result())
		}
		if !reflect.DeepEqual(topos[0], topos[1]) {
			t.Errorf("%s: the spellings resolve differently:\n cores: %+v\n tiles: %+v", name, topos[0], topos[1])
		}
		if string(results[0]) != string(results[1]) {
			t.Errorf("%s: tiles result diverges from cores:\n cores: %s\n tiles: %s", name, results[0], results[1])
		}
	}
}

// TestMeshGeometryValidated covers the NoC placement checks: an undersized
// mesh is rejected (never silent off-grid placement), and pinned slots must be
// all-or-none, in-grid, and unique.
func TestMeshGeometryValidated(t *testing.T) {
	g, tr := traceSPMD(t, spmdVecAdd, 2, vecSetup(256), nil)
	slot := func(s int) *int { return &s }
	build := func(tiles []config.TileDef, noc *config.NoCConfig) error {
		sc := &config.SystemConfig{Name: "mesh", Tiles: tiles, Mem: config.TableIIMem(), NoC: noc}
		_, err := NewSPMD(sc, g, tr, nil)
		return err
	}
	two := []config.TileDef{{Kind: "ooo"}, {Kind: "ooo"}}

	if err := build(two, &config.NoCConfig{MeshWidth: 1, HopCycles: 4}); err == nil ||
		!strings.Contains(err.Error(), "1 slots but the system has 2 tiles") {
		t.Errorf("undersized mesh accepted: %v", err)
	}
	if err := build([]config.TileDef{{Kind: "ooo", MeshSlot: slot(0)}, {Kind: "ooo"}},
		&config.NoCConfig{MeshWidth: 2, HopCycles: 4}); err == nil ||
		!strings.Contains(err.Error(), "every tile pins") {
		t.Errorf("partial pinning accepted: %v", err)
	}
	if err := build([]config.TileDef{{Kind: "ooo", MeshSlot: slot(0)}, {Kind: "ooo", MeshSlot: slot(4)}},
		&config.NoCConfig{MeshWidth: 2, HopCycles: 4}); err == nil ||
		!strings.Contains(err.Error(), "outside") {
		t.Errorf("off-grid slot accepted: %v", err)
	}
	if err := build([]config.TileDef{{Kind: "ooo", MeshSlot: slot(1)}, {Kind: "ooo", MeshSlot: slot(1)}},
		&config.NoCConfig{MeshWidth: 2, HopCycles: 4}); err == nil ||
		!strings.Contains(err.Error(), "pinned twice") {
		t.Errorf("duplicate slot accepted: %v", err)
	}
	if err := build([]config.TileDef{{Kind: "ooo", MeshSlot: slot(3)}, {Kind: "ooo", MeshSlot: slot(0)}},
		&config.NoCConfig{MeshWidth: 2, HopCycles: 4}); err != nil {
		t.Errorf("valid pinned placement rejected: %v", err)
	}

	// The same undersized geometry is already rejected by Resolve, before
	// any trace exists.
	sc := &config.SystemConfig{Name: "mesh", Tiles: two, Mem: config.TableIIMem(),
		NoC: &config.NoCConfig{MeshWidth: 1, HopCycles: 4}}
	if _, err := Resolve(sc, false); err == nil {
		t.Error("Resolve accepted an undersized mesh")
	}
}

// TestPinnedMeshPlacementChangesLatency runs the same two-tile DAE-free
// system with default row-major placement and with the tiles pinned to
// opposite mesh corners; the pinned layout must change hop distance and be
// deterministic.
func TestPinnedMeshSlotsApplyToFabric(t *testing.T) {
	g, tr := traceSPMD(t, spmdVecAdd, 2, vecSetup(256), nil)
	slot := func(s int) *int { return &s }
	sc := &config.SystemConfig{
		Name: "pinned",
		Tiles: []config.TileDef{
			{Kind: "ooo", MeshSlot: slot(0)},
			{Kind: "ooo", MeshSlot: slot(3)},
		},
		Mem: config.TableIIMem(),
		NoC: &config.NoCConfig{MeshWidth: 2, HopCycles: 4},
	}
	sys, err := NewSPMD(sc, g, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 3}; !reflect.DeepEqual(sys.Fabric.Slots, want) {
		t.Errorf("Fabric.Slots = %v, want %v", sys.Fabric.Slots, want)
	}
	if err := sys.Run(context.Background(), 200_000_000); err != nil {
		t.Fatal(err)
	}
}

// TestTileBreakdown checks the per-kind rollup on a heterogeneous system:
// kinds aggregate in first-appearance order, tile counts and instruction
// totals add up, and the idle accelerator manager is omitted.
func TestTileBreakdown(t *testing.T) {
	g, tr := traceSPMD(t, spmdVecAdd, 3, vecSetup(768), nil)
	sc := &config.SystemConfig{
		Name: "hetero",
		Tiles: []config.TileDef{
			{Kind: "ooo", Count: 2},
			{Kind: "inorder"},
		},
		Mem: config.TableIIMem(),
	}
	sys, err := NewSPMD(sc, g, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Run(context.Background(), 200_000_000); err != nil {
		t.Fatal(err)
	}
	bks := sys.TileBreakdown()
	if len(bks) != 2 || bks[0].Kind != "ooo" || bks[1].Kind != "inorder" {
		t.Fatalf("breakdown kinds = %+v, want [ooo inorder]", bks)
	}
	if bks[0].Tiles != 2 || bks[1].Tiles != 1 {
		t.Errorf("tile counts = %d/%d, want 2/1", bks[0].Tiles, bks[1].Tiles)
	}
	var instrs int64
	for _, b := range bks {
		if b.Instrs <= 0 || b.ActiveCycles <= 0 {
			t.Errorf("kind %s has empty stats: %+v", b.Kind, b)
		}
		instrs += b.Instrs
	}
	if total := sys.Result().Instrs; instrs != total {
		t.Errorf("breakdown instrs %d != system total %d", instrs, total)
	}
}

func TestReferenceClockAndRoles(t *testing.T) {
	resolve := func(name string, daePairs bool) *Topology {
		t.Helper()
		sc, err := config.TopologyPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := Resolve(sc, daePairs)
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	roles := func(topo *Topology) (out []string) {
		for _, rt := range topo.Tiles {
			out = append(out, rt.Role)
		}
		return out
	}
	if mhz, want := resolve("core-accel", false).RefClockMHz(), config.OutOfOrderCore().ClockMHz; mhz != want {
		t.Errorf("reference clock = %d, want first tile's %d", mhz, want)
	}
	pair := []string{config.RoleAccess, config.RoleExecute}
	if dae := resolve("dae-pair", false); !reflect.DeepEqual(roles(dae), pair) || dae.SlicedRoles {
		t.Errorf("declared roles = %v (sliced %v), want %v as declared", roles(dae), dae.SlicedRoles, pair)
	}
	// DAE slicing gives a role-less topology the same pairs, marked as its own.
	if sliced := resolve("core-accel", true); !reflect.DeepEqual(roles(sliced), pair) || !sliced.SlicedRoles {
		t.Errorf("sliced roles = %v (sliced %v), want %v from slicing", roles(sliced), sliced.SlicedRoles, pair)
	}
	if spmd := resolve("spmd-xeon", false); !reflect.DeepEqual(roles(spmd), make([]string, 4)) {
		t.Errorf("spmd roles = %v, want four empty", roles(spmd))
	}
}
