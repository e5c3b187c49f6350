package jobs

import (
	"fmt"
	"path/filepath"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/replay"
	"mosaicsim/internal/sim"
	"mosaicsim/internal/workloads"
)

// TestIdentityTable pins what addresses every persisted store — sim.Key
// (tile count, slicing mode, source hash, topology hash) and
// replay.StructHash — for the shipped configs, the presets, XeonSystem, the
// flat CLI/job shapes and DAE slicing. The literals were recorded on the tree
// before configs were resolved once into soc.Topology (commit 266ca5b); a
// change that moves one orphans every trace and schedule blob written so far.
func TestIdentityTable(t *testing.T) {
	type row struct {
		name               string
		tiles, mode        int
		src, topo, structH uint64
	}
	want := map[string]row{}
	for _, r := range []row{
		{"file:core-accel.json", 2, 0, 0xb546508122ff9b8a, 0x8328807b4eb6fed, 0xc5d5df97be57ddfe},
		{"file:dae-pair.json", 2, 1, 0xb546508122ff9b8a, 0xb913178d8efe92bc, 0xa31466a3eb237374},
		{"file:spmd-xeon.json", 4, 0, 0xb546508122ff9b8a, 0x4d25767f9dce13f5, 0xc7415ff88606652},
		{"preset:core-accel", 2, 0, 0xb546508122ff9b8a, 0x8328807b4eb6fed, 0xc5d5df97be57ddfe},
		{"preset:dae-pair", 2, 1, 0xb546508122ff9b8a, 0xb913178d8efe92bc, 0xa31466a3eb237374},
		{"preset:spmd-xeon", 4, 0, 0xb546508122ff9b8a, 0x4d25767f9dce13f5, 0xc7415ff88606652},
		{"xeon-system:1", 1, 0, 0xb546508122ff9b8a, 0xaf63bd4c8601b7df, 0x6992bfe5a70d363b},
		{"xeon-system:4", 4, 0, 0xb546508122ff9b8a, 0x4d25767f9dce13f5, 0xc7415ff88606652},
		{"xeon-system:16", 16, 0, 0xb546508122ff9b8a, 0x88201fb960ff6465, 0xaeb20b15556227a},
		{"flat:ooo/tab1/1/mesh0", 1, 0, 0xb546508122ff9b8a, 0xaf63bd4c8601b7df, 0xbd8ec44c33d535b7},
		{"flat:ooo/tab1/2/mesh0", 2, 0, 0xb546508122ff9b8a, 0x8328807b4eb6fed, 0x6b6753fb0a5ffc6c},
		{"flat:ooo/tab1/64/mesh0", 64, 0, 0xb546508122ff9b8a, 0xb9b23f3a46fd0825, 0x11d15c26fa76b99a},
		{"flat:ooo/tab1/64/mesh8", 64, 0, 0xb546508122ff9b8a, 0xb9b23f3a46fd0825, 0xc104a84969f955fe},
		{"flat:ooo/tab2/1/mesh0", 1, 0, 0xb546508122ff9b8a, 0xaf63bd4c8601b7df, 0x487d9e00a8f174a2},
		{"flat:ooo/tab2/2/mesh0", 2, 0, 0xb546508122ff9b8a, 0x8328807b4eb6fed, 0xc7de9f548d7d1a1f},
		{"flat:ooo/tab2/64/mesh0", 64, 0, 0xb546508122ff9b8a, 0xb9b23f3a46fd0825, 0xe328f869b6ff0619},
		{"flat:ooo/tab2/64/mesh8", 64, 0, 0xb546508122ff9b8a, 0xb9b23f3a46fd0825, 0xd7e2c4de7e905947},
		{"flat:inorder/tab1/1/mesh0", 1, 0, 0xb546508122ff9b8a, 0xaf63bd4c8601b7df, 0x5f576a11e67773db},
		{"flat:inorder/tab1/2/mesh0", 2, 0, 0xb546508122ff9b8a, 0x8328807b4eb6fed, 0xbe66e2e3d501104e},
		{"flat:inorder/tab1/64/mesh0", 64, 0, 0xb546508122ff9b8a, 0xb9b23f3a46fd0825, 0x3414353975ecb95a},
		{"flat:inorder/tab1/64/mesh8", 64, 0, 0xb546508122ff9b8a, 0xb9b23f3a46fd0825, 0xbaf6c1fe4f92d63e},
		{"flat:inorder/tab2/1/mesh0", 1, 0, 0xb546508122ff9b8a, 0xaf63bd4c8601b7df, 0x737848d09db26126},
		{"flat:inorder/tab2/2/mesh0", 2, 0, 0xb546508122ff9b8a, 0x8328807b4eb6fed, 0x1e435f2a14012a9d},
		{"flat:inorder/tab2/64/mesh0", 64, 0, 0xb546508122ff9b8a, 0xb9b23f3a46fd0825, 0xfff13de4341a8a59},
		{"flat:inorder/tab2/64/mesh8", 64, 0, 0xb546508122ff9b8a, 0xb9b23f3a46fd0825, 0x226ac7d8e4deac07},
		{"flat:xeon/tab1/1/mesh0", 1, 0, 0xb546508122ff9b8a, 0xaf63bd4c8601b7df, 0x6992bfe5a70d363b},
		{"flat:xeon/tab1/2/mesh0", 2, 0, 0xb546508122ff9b8a, 0x8328807b4eb6fed, 0x309ed124efc61c2e},
		{"flat:xeon/tab1/64/mesh0", 64, 0, 0xb546508122ff9b8a, 0xb9b23f3a46fd0825, 0x2ef02cc0c2c7d95a},
		{"flat:xeon/tab1/64/mesh8", 64, 0, 0xb546508122ff9b8a, 0xb9b23f3a46fd0825, 0x78eb89e71ed5363e},
		{"flat:xeon/tab2/1/mesh0", 1, 0, 0xb546508122ff9b8a, 0xaf63bd4c8601b7df, 0x7124a54461f10686},
		{"flat:xeon/tab2/2/mesh0", 2, 0, 0xb546508122ff9b8a, 0x8328807b4eb6fed, 0xec45d73bc94b6b7d},
		{"flat:xeon/tab2/64/mesh0", 64, 0, 0xb546508122ff9b8a, 0xb9b23f3a46fd0825, 0xedb5a7e64d6bea59},
		{"flat:xeon/tab2/64/mesh8", 64, 0, 0xb546508122ff9b8a, 0xb9b23f3a46fd0825, 0x5dcf05090e5cc07},
		{"slicing-dae:2", 2, 1, 0xb546508122ff9b8a, 0xb913178d8efe92bc, 0xc7de9f548d7d1a1f},
		{"slicing-dae:4", 4, 1, 0xb546508122ff9b8a, 0xb2926415afbd2fd3, 0x3e85586e893bcbdd},
	} {
		want[r.name] = r
	}
	seen := map[string]bool{}
	w := workloads.ByName("sgemm")
	check := func(name string, opts sim.Options) {
		t.Helper()
		seen[name] = true
		opts.Workload, opts.Scale = w, workloads.Tiny
		s, err := sim.NewSession(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		canon, err := replay.CanonJSON(nil, s.Topology())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		k, r := s.Key(), want[name]
		if k.Tiles != r.tiles || int(k.Mode) != r.mode || k.SrcHash != r.src || k.Topo != r.topo {
			t.Errorf("%s: key {tiles %d, mode %d, src %#x, topo %#x}, recorded {%d, %d, %#x, %#x}",
				name, k.Tiles, k.Mode, k.SrcHash, k.Topo, r.tiles, r.mode, r.src, r.topo)
		}
		if h := replay.StructHash(canon); h != r.structH {
			t.Errorf("%s: StructHash %#x, recorded %#x", name, h, r.structH)
		}
	}
	paths, err := filepath.Glob("../../configs/*.json")
	if err != nil || len(paths) != 3 {
		t.Fatalf("configs/*.json: %v, %v", paths, err)
	}
	for _, p := range paths {
		sc, err := config.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		check("file:"+filepath.Base(p), sim.Options{Config: sc})
	}
	for _, n := range config.TopologyPresets() {
		sc, err := config.TopologyPreset(n)
		if err != nil {
			t.Fatal(err)
		}
		check("preset:"+n, sim.Options{Config: sc})
	}
	for _, n := range []int{1, 4, 16} {
		check(fmt.Sprintf("xeon-system:%d", n), sim.Options{Config: config.XeonSystem(n)})
	}
	for _, c := range []string{"ooo", "inorder", "xeon"} {
		for _, m := range []string{"tab1", "tab2"} {
			for _, shape := range []struct{ tiles, mesh int }{{1, 0}, {2, 0}, {64, 0}, {64, 8}} {
				sc, err := config.Flat("sgemm", c, m, shape.tiles)
				if err != nil {
					t.Fatal(err)
				}
				if shape.mesh > 0 {
					sc.NoC = &config.NoCConfig{MeshWidth: shape.mesh, HopCycles: 4}
				}
				check(fmt.Sprintf("flat:%s/%s/%d/mesh%d", c, m, shape.tiles, shape.mesh), sim.Options{Config: sc})
			}
		}
	}
	for _, n := range []int{2, 4} {
		sp, err := Spec{Workload: "sgemm", Scale: "tiny", Tiles: n, Slicing: "dae"}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		opts, err := sp.SessionOptions(nil)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("slicing-dae:%d", n), opts)
		// The same machine named the library way: a cores config and SliceDAE.
		check(fmt.Sprintf("slicing-dae:%d", n), sim.Options{Slicing: sim.SliceDAE, Config: &config.SystemConfig{
			Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: n}}, Mem: config.TableIIMem()}})
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("%s: recorded but not checked", name)
		}
	}
}
