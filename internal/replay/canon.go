package replay

// Canonical configuration form and structural hash. Two system configs that
// differ only in replay-classifiable timing knobs must hash equal (so a
// sweep leg finds the recorded schedule), and configs that differ in
// anything that could reorder the schedule — tile counts, roles, queue
// capacities, cache geometry, the DRAM model — must hash differently (so
// the leg provably misses and falls back to full simulation).
//
// The canonical form is computed over the resolved topology with every
// classifiable knob normalized away:
//
//   - names (never affect timing);
//   - per-core MispredictPenalty, AtomicExtraLatency, and the mem-class
//     latency (classified by binding counts — the other per-class latencies
//     stay structural because the recorded Result carries no per-class
//     instruction counts to prove them unread);
//   - cache LatencyCycles per level, DRAM MinLatency, DirInvCycles, NoC
//     HopCycles;
//   - the DRAM knobs the selected model never reads (the banked model
//     ignores MinLatency/Bandwidth/Epoch; the simple model ignores the
//     banked timing set), plus SimpleDRAM bandwidth/epoch, which classify
//     by comparing the recorded and new per-epoch budgets.

import (
	"encoding/json"
	"hash/fnv"

	"mosaicsim/internal/config"
	"mosaicsim/internal/soc"
)

// canonCore is a core config with classifiable knobs normalized away plus
// the effective per-class latency vector (so an override equal to the
// default compares equal to an absent override).
type canonCore struct {
	Cfg    config.CoreConfig
	EffLat [config.NumClasses]int64
}

type canonTile struct {
	Kind     string
	Role     string
	MeshSlot int
	Core     canonCore
}

type canonForm struct {
	Tiles []canonTile
	Mem   config.MemConfig
	NoC   *config.NoCConfig
	// FabricLat stays structural (not normalized away): a base fabric
	// latency delta reorders message arrivals, which no replay proof covers.
	FabricLat int64
}

func canonCoreCfg(cfg config.CoreConfig) canonCore {
	c := canonCore{Cfg: cfg}
	c.Cfg.Name = ""
	c.Cfg.MispredictPenalty = 0
	c.Cfg.AtomicExtraLatency = 0
	c.Cfg.Latencies = nil
	for cl := config.InstrClass(0); cl < config.NumClasses; cl++ {
		c.EffLat[cl] = cfg.Latency(cl)
	}
	// The mem-class entry is never consulted (memory ops take their latency
	// from the hierarchy), so it is classifiable and normalized away.
	c.EffLat[config.ClassMem] = 0
	return c
}

func canonCache(c config.CacheConfig) config.CacheConfig {
	c.Name = ""
	c.LatencyCycles = 0
	return c
}

func canonMem(m config.MemConfig) config.MemConfig {
	m.L1 = canonCache(m.L1)
	if m.L2 != nil {
		c := canonCache(*m.L2)
		m.L2 = &c
	}
	if m.LLC != nil {
		c := canonCache(*m.LLC)
		m.LLC = &c
	}
	d := m.DRAM
	d.MinLatency = 0
	d.BandwidthGBs = 0
	d.EpochCycles = 0
	if d.Model == config.DRAMBanked {
		// DDR timing knobs classify by traffic count; channel/bank/row
		// geometry shapes the address mapping and stays structural.
		d.TCAS, d.TRCD, d.TRP, d.TBurst = 0, 0, 0, 0
	} else {
		d.Model = config.DRAMSimple // "" selects simple: normalize the alias
		d.Channels, d.Banks, d.RowBytes = 0, 0, 0
		d.TCAS, d.TRCD, d.TRP, d.TBurst = 0, 0, 0, 0
	}
	m.DRAM = d
	m.DirInvCycles = 0
	return m
}

func canonNoC(n *config.NoCConfig) *config.NoCConfig {
	if n == nil {
		return nil
	}
	c := *n
	c.HopCycles = 0
	return &c
}

// CanonJSON renders a topology's canonical form. A session marshals its own
// topology once: the bytes hash into the schedule key (StructHash) and are
// what Classify compares against a recorded schedule's.
func CanonJSON(t *soc.Topology) ([]byte, error) {
	cf := canonForm{Tiles: make([]canonTile, len(t.Tiles)), Mem: canonMem(t.Mem), NoC: canonNoC(t.NoC), FabricLat: t.FabricLat}
	for i, rt := range t.Tiles {
		cf.Tiles[i] = canonTile{Kind: rt.Kind, Role: rt.Role, MeshSlot: rt.MeshSlot, Core: canonCoreCfg(rt.Cfg)}
		if t.SlicedRoles {
			cf.Tiles[i].Role = "" // see soc.Topology.SlicedRoles
		}
	}
	return json.Marshal(cf)
}

// StructHash hashes a canonical form: equal for configs whose differences the
// replay classifier can examine, different for anything that could reorder a
// recorded schedule. It keys the schedule layer of sim.Cache alongside the
// workload key.
func StructHash(canon []byte) uint64 {
	h := fnv.New64a()
	h.Write(canon)
	return h.Sum64()
}
