package testgen

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"mosaicsim/internal/config"
)

// Topology returns a deterministic random system configuration for seed in
// the tiles spelling. Every draw validates and resolves: it is a shape of
// system a user could submit, not hostile input. A draw is one of three
// shapes — SPMD cores (in-order, out-of-order or both), access/execute
// pairs of DeSC in-order cores, or a host core next to an accelerator tile
// — over one to three cache levels, SimpleDRAM or the banked model, and a
// flat fabric or a mesh.
func Topology(seed int64) *config.SystemConfig {
	return topology(seed, nil)
}

// topoKnobs is every integer Topology draws, with its inclusive range. Each
// draw goes through topoGen.knob, so a test can see that every knob reaches
// both ends of its range.
var topoKnobs = map[string][2]int{
	"shape": {0, 2}, "defs": {1, 2}, "count": {1, 8}, "pairs": {1, 3},
	"ooo": {0, 1}, "issue_width": {1, 8}, "window_size": {1, 128}, "lsq_size": {1, 64},
	"max_live_dbb": {0, 8}, "fu_limit": {0, 4}, "branch": {0, 3}, "mispredict_penalty": {0, 20},
	"perfect_alias_spec": {0, 1}, "decoupled_supply": {0, 1}, "clock_mhz": {5, 32},
	"latency_override": {0, 30}, "max_messages_64": {0, 16}, "atomic_extra_latency": {0, 50},
	"area_sevenths_mm2": {1, 64}, "accel_clock_mhz": {5, 20},
	"levels": {1, 3}, "line_log2": {4, 7}, "assoc": {1, 20}, "set_odd": {0, 7}, "set_shift": {0, 3},
	"cache_latency": {1, 40}, "mshrs": {1, 32}, "ports": {1, 4}, "prefetch_degree": {0, 4},
	"banked": {0, 1}, "dram_min_latency_10": {1, 30}, "bandwidth_gbs": {1, 100}, "epoch_cycles_50": {1, 20},
	"channels": {1, 4}, "banks": {1, 16}, "row_log2": {9, 12}, "dram_timing": {1, 40},
	"mesh": {0, 1}, "mesh_slack": {0, 1}, "hop_cycles": {0, 8}, "fabric_latency": {-1, 4},
	"directory": {0, 1}, "dir_inv_cycles": {0, 60},
}

type topoGen struct {
	rng  *rand.Rand
	seen func(knob string, v int)
}

// topology is Topology with every draw reported to seen (nil: none).
func topology(seed int64, seen func(knob string, v int)) *config.SystemConfig {
	g := &topoGen{rng: rand.New(rand.NewSource(seed)), seen: seen}
	sc := &config.SystemConfig{Name: fmt.Sprintf("testgen-%d", seed)}
	switch g.knob("shape") {
	case 0: // SPMD: one or two core definitions
		for range g.knob("defs") {
			core := g.core(g.knob("ooo") == 1)
			sc.Tiles = append(sc.Tiles, config.TileDef{Core: &core, Count: g.knob("count")})
		}
	case 1: // access/execute pairs of DeSC in-order cores
		access, execute := g.core(false), g.core(false)
		for range g.knob("pairs") {
			sc.Tiles = append(sc.Tiles,
				config.TileDef{Core: &access, Role: config.RoleAccess, Overrides: json.RawMessage(config.DeSCOverrides)},
				config.TileDef{Core: &execute, Role: config.RoleExecute, Overrides: json.RawMessage(config.DeSCOverrides)})
		}
	default: // a host core next to the pre-RTL accelerator tile
		host := g.core(g.knob("ooo") == 1)
		sc.Tiles = []config.TileDef{{Core: &host}, {Kind: "accel-tile", ClockMHz: 100 * g.knob("accel_clock_mhz")}}
	}
	tiles := 0
	for i := range sc.Tiles {
		tiles += sc.Tiles[i].Instances()
	}

	levels := g.knob("levels")
	sc.Mem.L1 = g.cache("L1")
	if levels >= 2 {
		l2 := g.cache("L2")
		sc.Mem.L2 = &l2
	}
	if levels == 3 {
		llc := g.cache("LLC")
		sc.Mem.LLC = &llc
	}
	if g.knob("banked") == 1 {
		d := config.BankedDRAMDefaults(float64(g.knob("bandwidth_gbs")))
		d.Channels, d.Banks, d.RowBytes = g.knob("channels"), g.knob("banks"), 1<<g.knob("row_log2")
		d.TCAS, d.TRCD, d.TRP, d.TBurst = g.lat("dram_timing"), g.lat("dram_timing"), g.lat("dram_timing"), g.lat("dram_timing")
		sc.Mem.DRAM = d
	} else {
		sc.Mem.DRAM = config.DRAMConfig{Model: config.DRAMSimple, MinLatency: 10 * g.lat("dram_min_latency_10"),
			BandwidthGBs: float64(g.knob("bandwidth_gbs")), EpochCycles: 50 * g.lat("epoch_cycles_50")}
	}
	sc.Mem.Directory = g.knob("directory") == 1 && tiles <= config.MaxDirectoryTiles
	sc.Mem.DirInvCycles = g.lat("dir_inv_cycles")

	if g.knob("mesh") == 1 {
		w := 1
		for w*w < tiles {
			w++
		}
		sc.NoC = &config.NoCConfig{MeshWidth: w + g.knob("mesh_slack"), HopCycles: g.lat("hop_cycles")}
	}
	if fl := g.lat("fabric_latency"); fl >= 0 {
		sc.FabricLatency = &fl
	}
	return sc
}

// knob draws the named knob uniformly over its range.
func (g *topoGen) knob(name string) int {
	r, ok := topoKnobs[name]
	if !ok {
		panic("testgen: unknown topology knob " + name)
	}
	v := r[0] + g.rng.Intn(r[1]-r[0]+1)
	if g.seen != nil {
		g.seen(name, v)
	}
	return v
}

func (g *topoGen) lat(name string) int64 { return int64(g.knob(name)) }

// core draws one core shape on top of the in-order or out-of-order preset.
func (g *topoGen) core(ooo bool) config.CoreConfig {
	c := config.InOrderCore()
	if ooo {
		c = config.OutOfOrderCore()
	}
	c.Name = fmt.Sprintf("%s-%d", c.Name, g.rng.Intn(1000))
	c.IssueWidth, c.WindowSize, c.LSQSize = g.knob("issue_width"), g.knob("window_size"), g.knob("lsq_size")
	c.MaxLiveDBB = g.knob("max_live_dbb")
	if n := g.knob("fu_limit"); n > 0 {
		c.FunctionalUnits = map[string]int{"int_mul": n, "fp_alu": 5 - n}
	}
	c.Branch = []config.BranchPredictor{config.BranchNone, config.BranchStatic, config.BranchDynamic, config.BranchPerfect}[g.knob("branch")]
	c.MispredictPenalty = g.lat("mispredict_penalty")
	c.PerfectAliasSpec = g.knob("perfect_alias_spec") == 1
	c.DecoupledSupply = g.knob("decoupled_supply") == 1
	c.ClockMHz = 100 * g.knob("clock_mhz")
	if v := g.lat("latency_override"); v > 0 {
		c.Latencies = map[string]int64{"fp_mul": v, "mem": v % 7}
	}
	c.MaxMessages = 64 * g.knob("max_messages_64")
	c.AtomicExtraLatency = g.lat("atomic_extra_latency")
	c.AreaMM2 = float64(g.knob("area_sevenths_mm2")) / 7
	return c
}

// cache draws one cache level: its own line size, 1–20 ways and a set count
// that is an odd number times the least power of two that makes the
// capacity a whole number of KB (shifted up to eight times further).
func (g *topoGen) cache(name string) config.CacheConfig {
	line, assoc := 1<<g.knob("line_log2"), g.knob("assoc")
	sets := 2*g.knob("set_odd") + 1
	for sets*assoc*line%1024 != 0 {
		sets *= 2
	}
	sets <<= g.knob("set_shift")
	return config.CacheConfig{Name: name, SizeKB: sets * assoc * line / 1024, LineBytes: line, Assoc: assoc,
		LatencyCycles: g.lat("cache_latency"), MSHRs: g.knob("mshrs"), PortsPerCycle: g.knob("ports"),
		PrefetchDegree: g.knob("prefetch_degree")}
}
