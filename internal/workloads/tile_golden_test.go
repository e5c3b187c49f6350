package workloads

// Seed-golden lock for the tile-interface Interleaver refactor.
//
// testdata/tile_seed_results.json holds the soc.Result JSON the pre-refactor
// (seed) Interleaver produced for every built-in workload and for the config
// matrix whose timing paths differ most (in-order cores, banked DRAM,
// directory coherence, a NoC mesh, unequal clocks, DAE pairs). The test
// regenerates every entry with cycle skipping both off and on and requires
// all three byte streams — golden, naive, skipping — to be identical, so the
// tile loop is provably a pure restructuring, never a model change.
//
// Regenerate (only when a model change is intentional) with:
//
//	go test ./internal/workloads -run TestTileSeedGolden -update-tile-golden

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/dae"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/soc"
)

var updateTileGolden = flag.Bool("update-tile-golden", false,
	"rewrite testdata/tile_seed_results.json from the current simulator")

const tileGoldenPath = "testdata/tile_seed_results.json"

// goldenCase is one (workload, system) matrix entry. build returns a fresh
// system over a freshly traced artifact; it is invoked twice, once per
// skipping mode.
type goldenCase struct {
	key   string
	build func(t *testing.T) *soc.System
}

// spmdCase traces w on tiles tiles and builds it over sc.
func spmdCase(key string, w *Workload, tiles int, sc *config.SystemConfig) goldenCase {
	return goldenCase{key: key, build: func(t *testing.T) *soc.System {
		t.Helper()
		g, tr, err := w.Trace(tiles, Tiny)
		if err != nil {
			t.Fatalf("trace %s: %v", w.Name, err)
		}
		sys, err := soc.NewSPMD(sc, g, tr, DefaultAccelModels(sc.Cores[0].Core.ClockMHz))
		if err != nil {
			t.Fatalf("build %s: %v", key, err)
		}
		return sys
	}}
}

// daeCase slices w and builds the heterogeneous access/execute pair system
// with the same DeSC core configuration the experiment harness uses.
func daeCase(key string, w *Workload, pairs int) goldenCase {
	return goldenCase{key: key, build: func(t *testing.T) *soc.System {
		t.Helper()
		f, err := w.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		sl, err := dae.Slice(f)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := w.TracePairs(sl.Access, sl.Execute, pairs, Tiny)
		if err != nil {
			t.Fatal(err)
		}
		ino := config.InOrderCore()
		ino.DecoupledSupply = true
		ino.WindowSize = 64
		ino.LSQSize = 12
		ag, eg := ddg.Build(sl.Access), ddg.Build(sl.Execute)
		tiles := make([]soc.TileSpec, 2*pairs)
		for i := range tiles {
			g := ag
			if i%2 == 1 {
				g = eg
			}
			tiles[i] = soc.TileSpec{Cfg: ino, Graph: g, TT: tr.Tiles[i]}
		}
		sys, err := soc.New(key, tiles, config.TableIIMem(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}}
}

// zeroLatCase is daeCase on an idealized same-cycle fabric: messages mature
// the cycle they are sent. DAE pairs are the only built-in workloads that
// communicate — and their fused sends reserve future slots — so this case
// pins same-cycle delivery against the seed.
func zeroLatCase(key string, w *Workload, pairs int) goldenCase {
	base := daeCase(key, w, pairs)
	return goldenCase{key: key, build: func(t *testing.T) *soc.System {
		sys := base.build(t)
		sys.Fabric.Latency = 0
		return sys
	}}
}

// tileGoldenCases builds the full (workload, system) matrix. wrap is applied
// to every workload before tracing — identity for the seed lock, an explicit
// opt config for the O0-bit-identity leg.
func tileGoldenCases(t *testing.T, wrap func(*Workload) *Workload) []goldenCase {
	ooo2 := func(name string) *config.SystemConfig {
		return &config.SystemConfig{
			Name:  name,
			Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 2}},
			Mem:   config.TableIIMem(),
		}
	}
	var cases []goldenCase
	for _, w := range All() {
		cases = append(cases, spmdCase("spmd/"+w.Name, wrap(w), 2, ooo2(w.Name)))
	}

	inorder := ooo2("cfg-inorder")
	inorder.Cores[0].Core = config.InOrderCore()
	banked := ooo2("cfg-banked")
	banked.Mem.DRAM = config.BankedDRAMDefaults(banked.Mem.DRAM.BandwidthGBs)
	coherent := ooo2("cfg-coherence")
	coherent.Mem.Directory = true
	mesh := &config.SystemConfig{
		Name:  "cfg-mesh",
		Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 4}},
		Mem:   config.TableIIMem(),
		NoC:   &config.NoCConfig{MeshWidth: 2, HopCycles: 4},
	}
	slow := config.OutOfOrderCore()
	slow.ClockMHz /= 2
	mixed := &config.SystemConfig{
		Name:  "cfg-mixed-clocks",
		Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 1}, {Core: slow, Count: 1}},
		Mem:   config.TableIIMem(),
	}
	cases = append(cases,
		spmdCase("cfg/inorder", wrap(ByName("spmv")), 2, inorder),
		spmdCase("cfg/banked-dram", wrap(ByName("bfs")), 2, banked),
		spmdCase("cfg/coherence", wrap(ByName("sgemm")), 2, coherent),
		spmdCase("cfg/mesh", wrap(ByName("bfs")), 4, mesh),
		spmdCase("cfg/mixed-clocks", wrap(ByName("spmv")), 2, mixed),
		daeCase("dae/projection-1pair", wrap(Projection()), 1),
		daeCase("dae/projection-2pair", wrap(Projection()), 2),
		zeroLatCase("dae/projection-2pair-zerolat", wrap(Projection()), 2),
	)
	return cases
}

// runGolden builds and runs one case with the chosen skipping mode and
// returns its compact Result JSON. No core may stall for more cycles than
// it ran.
func runGolden(t *testing.T, gc goldenCase, noskip bool) []byte {
	t.Helper()
	sys := gc.build(t)
	sys.DisableCycleSkipping = noskip
	if err := sys.Run(context.Background(), 0); err != nil {
		t.Fatalf("run %s (noskip=%v): %v", gc.key, noskip, err)
	}
	for i, cs := range sys.Result().CoreStats {
		if sum := cs.MAOStalls + cs.FUStalls + cs.WindowStalls + cs.CommStalls; sum > cs.Cycles {
			t.Errorf("%s (noskip=%v) core %d: %d stall cycles in %d cycles", gc.key, noskip, i, sum, cs.Cycles)
		}
	}
	data, err := json.Marshal(sys.Result())
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestTileSeedGolden(t *testing.T) {
	cases := tileGoldenCases(t, func(w *Workload) *Workload { return w })

	if *updateTileGolden {
		out := map[string]json.RawMessage{}
		for _, gc := range cases {
			out[gc.key] = runGolden(t, gc, true)
		}
		keys := make([]string, 0, len(out))
		for k := range out {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ordered := map[string]json.RawMessage{}
		for _, k := range keys {
			ordered[k] = out[k]
		}
		data, err := json.MarshalIndent(ordered, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(tileGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(tileGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", tileGoldenPath, len(out))
		return
	}

	raw, err := os.ReadFile(tileGoldenPath)
	if err != nil {
		t.Fatalf("missing seed golden (regenerate with -update-tile-golden): %v", err)
	}
	var golden map[string]json.RawMessage
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden) != len(cases) {
		t.Fatalf("golden has %d cases, matrix has %d (regenerate with -update-tile-golden)", len(golden), len(cases))
	}
	for _, gc := range cases {
		gc := gc
		t.Run(gc.key, func(t *testing.T) {
			t.Parallel()
			want, ok := golden[gc.key]
			if !ok {
				t.Fatalf("no golden entry for %s", gc.key)
			}
			var buf bytes.Buffer
			if err := json.Compact(&buf, want); err != nil {
				t.Fatal(err)
			}
			// Both skipping modes must reproduce the seed byte stream: the
			// tile loop restructuring and the skipper are pure
			// restructurings, never model changes.
			naive := runGolden(t, gc, true)
			skip := runGolden(t, gc, false)
			if !bytes.Equal(buf.Bytes(), naive) {
				t.Errorf("naive loop diverged from the seed simulator:\nseed: %s\ngot:  %s", buf.Bytes(), naive)
			}
			if !bytes.Equal(buf.Bytes(), skip) {
				t.Errorf("skipping loop diverged from the seed simulator:\nseed: %s\ngot:  %s", buf.Bytes(), skip)
			}
		})
	}
}

// TestTileSeedGoldenO0 pins the pass pipeline's O0 contract against the
// committed seed golden: building every matrix workload with an explicit
// O0 opt config must produce byte-identical Result JSON to the default
// build, because O0 runs an empty pipeline — same IR, same trace, same
// timing. Any divergence means the pipeline hook mutated the module even
// when no passes were requested.
func TestTileSeedGoldenO0(t *testing.T) {
	if *updateTileGolden {
		t.Skip("golden regeneration runs through TestTileSeedGolden")
	}
	cases := tileGoldenCases(t, func(w *Workload) *Workload {
		return w.WithOpt(ir.OptConfig{Level: "O0"})
	})
	raw, err := os.ReadFile(tileGoldenPath)
	if err != nil {
		t.Fatalf("missing seed golden (regenerate with -update-tile-golden): %v", err)
	}
	var golden map[string]json.RawMessage
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	for _, gc := range cases {
		gc := gc
		t.Run(gc.key, func(t *testing.T) {
			t.Parallel()
			want, ok := golden[gc.key]
			if !ok {
				t.Fatalf("no golden entry for %s", gc.key)
			}
			var buf bytes.Buffer
			if err := json.Compact(&buf, want); err != nil {
				t.Fatal(err)
			}
			got := runGolden(t, gc, true)
			if !bytes.Equal(buf.Bytes(), got) {
				t.Errorf("explicit O0 diverged from the seed simulator:\nseed: %s\ngot:  %s", buf.Bytes(), got)
			}
		})
	}
}
