package config

import (
	"encoding/json"
	"fmt"
	"sort"

	"mosaicsim/internal/stats"
)

// Presets reproducing the paper's configurations.

// OutOfOrderCore returns the Table II out-of-order core: 4-wide, 128-entry
// window/ROB/LSQ, 2 GHz, 8.44 mm².
func OutOfOrderCore() CoreConfig {
	return CoreConfig{
		Name:              "ooo",
		IssueWidth:        4,
		WindowSize:        128,
		LSQSize:           128,
		Branch:            BranchStatic,
		MispredictPenalty: 10,
		PerfectAliasSpec:  true,
		ClockMHz:          2000,
		AreaMM2:           8.44,
		MaxMessages:       512,
	}
}

// InOrderCore returns the Table II in-order core: single-issue in-order
// (scoreboarded: issue stalls on use of a pending value, but independent
// instructions behind a miss keep issuing), 2 GHz, 1.01 mm².
func InOrderCore() CoreConfig {
	return CoreConfig{
		Name:              "inorder",
		IssueWidth:        1,
		WindowSize:        32,
		LSQSize:           8,
		InOrder:           true,
		Branch:            BranchNone,
		MispredictPenalty: 4,
		ClockMHz:          2000,
		AreaMM2:           1.01,
		MaxMessages:       512,
	}
}

// XeonLikeCore approximates one core of the Table I Intel Xeon E5-2667 v3
// used in the accuracy study: aggressive out-of-order at 3.2 GHz.
func XeonLikeCore() CoreConfig {
	c := OutOfOrderCore()
	c.Name = "xeon"
	c.IssueWidth = 4
	c.WindowSize = 192
	c.LSQSize = 96
	c.ClockMHz = 3200
	c.PerfectAliasSpec = true
	c.Branch = BranchPerfect
	return c
}

// AcceleratorTileCore returns a pre-RTL accelerator tile configuration
// (§III-A, §IV): relaxed window, wide issue, bounded loop-body replication.
func AcceleratorTileCore(unroll int) CoreConfig {
	return CoreConfig{
		Name:        "accel-tile",
		IssueWidth:  16,
		WindowSize:  512,
		LSQSize:     256,
		MaxLiveDBB:  unroll,
		Branch:      BranchPerfect,
		ClockMHz:    1000,
		AreaMM2:     2.0,
		MaxMessages: 512,
	}
}

// TableIMem returns the Table I Xeon-like memory hierarchy: 32 KB 8-way L1,
// 2 MB 8-way private L2, 20 MB 20-way shared LLC, 68 GB/s DRAM.
func TableIMem() MemConfig {
	l2 := CacheConfig{Name: "L2", SizeKB: 2048, LineBytes: 64, Assoc: 8, LatencyCycles: 6, MSHRs: 16, PortsPerCycle: 1, PrefetchDegree: 2}
	llc := CacheConfig{Name: "LLC", SizeKB: 20480, LineBytes: 64, Assoc: 20, LatencyCycles: 18, MSHRs: 32, PortsPerCycle: 2}
	return MemConfig{
		L1:  CacheConfig{Name: "L1", SizeKB: 32, LineBytes: 64, Assoc: 8, LatencyCycles: 1, MSHRs: 8, PortsPerCycle: 2, PrefetchDegree: 2},
		L2:  &l2,
		LLC: &llc,
		DRAM: DRAMConfig{
			Model:        DRAMSimple,
			MinLatency:   180,
			BandwidthGBs: 68,
			EpochCycles:  100,
		},
	}
}

// TableIIMem returns the Table II DAE case-study memory parameters: 32 KB
// 8-way 1-cycle L1, 2 MB 8-way 6-cycle L2, DDR3L 24 GB/s 200-cycle DRAM.
func TableIIMem() MemConfig {
	l2 := CacheConfig{Name: "L2", SizeKB: 2048, LineBytes: 64, Assoc: 8, LatencyCycles: 6, MSHRs: 16, PortsPerCycle: 1}
	return MemConfig{
		L1: CacheConfig{Name: "L1", SizeKB: 32, LineBytes: 64, Assoc: 8, LatencyCycles: 1, MSHRs: 8, PortsPerCycle: 2},
		L2: &l2,
		DRAM: DRAMConfig{
			Model:        DRAMSimple,
			MinLatency:   200,
			BandwidthGBs: 24,
			EpochCycles:  100,
		},
	}
}

// BankedDRAMDefaults fills DDR-style timing for the banked (DRAMSim2
// stand-in) model at the given peak bandwidth.
func BankedDRAMDefaults(bandwidthGBs float64) DRAMConfig {
	return DRAMConfig{
		Model:        DRAMBanked,
		MinLatency:   60,
		BandwidthGBs: bandwidthGBs,
		EpochCycles:  100,
		Channels:     2,
		Banks:        8,
		RowBytes:     2048,
		TCAS:         28,
		TRCD:         28,
		TRP:          28,
		TBurst:       8,
	}
}

// Homogeneous returns a system of count identical tiles over mem, in the
// tiles spelling; every driver that builds a system from parts starts here.
func Homogeneous(name string, core CoreConfig, count int, mem MemConfig) *SystemConfig {
	return &SystemConfig{Name: name, Tiles: []TileDef{{Core: &core, Count: count}}, Mem: mem}
}

// Flat lowers the flat (workload, core, mem, tiles) description that
// mosaicsim's flags and a job spec's fields share into a system config.
func Flat(workload, core, mem string, tiles int) (*SystemConfig, error) {
	var c CoreConfig
	switch core {
	case "ooo":
		c = OutOfOrderCore()
	case "inorder":
		c = InOrderCore()
	case "xeon":
		c = XeonLikeCore()
	default:
		return nil, fmt.Errorf("unknown core %q", core)
	}
	if tiles <= 0 {
		return nil, fmt.Errorf("tile count must be positive, got %d", tiles)
	}
	m := TableIIMem()
	if mem == "tab1" {
		m = TableIMem()
	}
	return Homogeneous(fmt.Sprintf("%s-%dx%s", workload, tiles, core), c, tiles, m), nil
}

// XeonSystem returns the Table I system with n cores.
func XeonSystem(n int) *SystemConfig {
	return Homogeneous("xeon-e5-2667v3", XeonLikeCore(), n, TableIMem())
}

// DeSCOverrides is the partial core config that turns the in-order tile
// into a DAE (DeSC-style) core: decoupled supply structures plus the
// extended run-ahead window of the Fig. 11 study (§VII-A).
const DeSCOverrides = `{"decoupled_supply": true, "window_size": 64, "lsq_size": 12}`

// topologyPresets are the named declarative topologies mosaicd and the CLI
// accept. Each returns a fresh SystemConfig, so callers may mutate.
var topologyPresets = map[string]func() *SystemConfig{
	// spmd-xeon: the Table I accuracy-study machine, four Xeon-like cores
	// over the Xeon memory hierarchy.
	"spmd-xeon": func() *SystemConfig {
		return &SystemConfig{
			Name:  "spmd-xeon",
			Tiles: []TileDef{{Kind: "xeon", Count: 4}},
			Mem:   TableIMem(),
		}
	},
	// dae-pair: one decoupled access/execute pair of DeSC in-order cores
	// over the Table II memory system (§VII-A).
	"dae-pair": func() *SystemConfig {
		return &SystemConfig{
			Name: "dae-pair",
			Tiles: []TileDef{
				{Kind: "inorder", Role: RoleAccess, Overrides: json.RawMessage(DeSCOverrides)},
				{Kind: "inorder", Role: RoleExecute, Overrides: json.RawMessage(DeSCOverrides)},
			},
			Mem: TableIIMem(),
		}
	},
	// core-accel: a heterogeneous SoC — an out-of-order host core next to a
	// pre-RTL accelerator tile at a slower clock (§III-A, §VII-B).
	"core-accel": func() *SystemConfig {
		return &SystemConfig{
			Name: "core-accel",
			Tiles: []TileDef{
				{Kind: "ooo"},
				{Kind: "accel-tile", ClockMHz: 1000},
			},
			Mem: TableIIMem(),
		}
	},
}

// TopologyPresets lists the named topology presets, sorted.
func TopologyPresets() []string {
	out := make([]string, 0, len(topologyPresets))
	for k := range topologyPresets {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TopologyPreset returns a fresh copy of a named topology, or an error with
// a did-you-mean suggestion.
func TopologyPreset(name string) (*SystemConfig, error) {
	if f, ok := topologyPresets[name]; ok {
		return f(), nil
	}
	names := TopologyPresets()
	if s := stats.Closest(name, names); s != "" {
		return nil, fmt.Errorf("config: unknown topology preset %q (did you mean %q?)", name, s)
	}
	return nil, fmt.Errorf("config: unknown topology preset %q (available: %v)", name, names)
}

// EnergyPerClassPJ is the per-instruction-class dynamic energy in picojoules
// used for instruction energy costs (§III-B) and the power model.
var EnergyPerClassPJ = [NumClasses]float64{
	ClassIntALU: 8, ClassIntMul: 25, ClassIntDiv: 120,
	ClassFPALU: 20, ClassFPMul: 35, ClassFPDiv: 160,
	ClassMem: 30, ClassBranch: 6, ClassCast: 4, ClassSpecial: 10,
}

// Cache and DRAM access energies in picojoules for the power model.
const (
	EnergyL1AccessPJ   = 25
	EnergyL2AccessPJ   = 80
	EnergyLLCAccessPJ  = 250
	EnergyDRAMAccessPJ = 2600
)
