package replay

import (
	"bytes"
	"fmt"

	"mosaicsim/internal/config"
	"mosaicsim/internal/mem"
	"mosaicsim/internal/soc"
)

// Decision is the classifier's verdict on one config delta: either the
// re-run is proven identical to the recorded one (Eligible — the hit is
// Schedule.ResultCopy) or it must fall back to full simulation for the
// stated Reason.
type Decision struct {
	Eligible bool
	// Families names the proofs an eligible decision rests on: "identical"
	// (no delta), "inert-knob", "dram-refit".
	Families []string
	// Reason explains a fallback (empty when Eligible).
	Reason string
}

// Classify decides whether a run of the new (topology, accelerator models,
// cycle limit) triple would be identical to the recorded one; canon is the
// new topology's CanonJSON. It is the explicit eligibility check the replay
// contract requires: every admitted delta carries a proof checkable from
// recorded evidence, and everything else falls back with a reason.
func Classify(s *Schedule, topo *soc.Topology, canon []byte, accels map[string]soc.AccelModel, limit int64) Decision {
	fb := func(format string, args ...any) Decision {
		return Decision{Reason: fmt.Sprintf(format, args...)}
	}
	if len(topo.Tiles) != len(s.Tiles) {
		return fb("structural: %d tiles recorded, %d requested", len(s.Tiles), len(topo.Tiles))
	}
	if len(s.Result.CoreStats) != len(s.Tiles) {
		return fb("schedule: core stats missing")
	}
	// Structural gate: the canonical forms must match exactly. The schedule
	// cache already keys on StructHash, but Classify re-proves it so direct
	// callers get the same guarantee (and hash collisions cannot admit a
	// structurally different config).
	oldCanon := s.canon
	if oldCanon == nil {
		var err error
		if oldCanon, err = CanonJSON(nil, &s.Topology); err != nil {
			return fb("schedule: %v", err)
		}
	}
	if !bytes.Equal(oldCanon, canon) {
		return fb("structural: configurations differ beyond replayable timing knobs")
	}

	// The families an eligible decision rests on; neither means "identical".
	var inert, refit bool
	// Per-core knobs: eligible only when the recorded run provably never
	// read them (binding counts from the recorded Result are zero).
	for i := range topo.Tiles {
		o, n := s.Tiles[i].Cfg, topo.Tiles[i].Cfg
		st := s.Result.CoreStats[i]
		if o.MispredictPenalty != n.MispredictPenalty {
			if st.Mispredict != 0 {
				return fb("bound knob: tile %d mispredict_penalty was read (%d mispredicts)", i, st.Mispredict)
			}
			inert = true
		}
		if o.AtomicExtraLatency != n.AtomicExtraLatency {
			if st.Atomics != 0 {
				return fb("bound knob: tile %d atomic_extra_latency was read (%d atomics)", i, st.Atomics)
			}
			inert = true
		}
		if o.Latency(config.ClassMem) != n.Latency(config.ClassMem) {
			inert = true // never read: memory ops time in the hierarchy
		}
	}

	// Memory-hierarchy knobs.
	om, nm := &s.Mem, &topo.Mem
	r := &s.Result
	for _, c := range [...]struct {
		level string
		o, n  *config.CacheConfig
		st    *mem.CacheStats
	}{{"l1", &om.L1, &nm.L1, &r.L1}, {"l2", om.L2, nm.L2, &r.L2}, {"llc", om.LLC, nm.LLC, &r.LLC}} {
		if c.o == nil || c.n == nil || c.o.LatencyCycles == c.n.LatencyCycles {
			continue
		}
		if c.st.Accesses != 0 || c.st.PrefetchIssued != 0 {
			return fb("bound knob: %s latency_cycles was read (%d accesses)", c.level, c.st.Accesses+c.st.PrefetchIssued)
		}
		inert = true
	}
	dramTraffic := r.DRAM.Reads + r.DRAM.Writebacks
	banked := om.DRAM.Model == config.DRAMBanked
	if om.DRAM.MinLatency != nm.DRAM.MinLatency {
		// The banked model never reads MinLatency; the simple model reads it
		// per request.
		if !banked && dramTraffic != 0 {
			return fb("bound knob: dram min_latency was read (%d requests)", dramTraffic)
		}
		inert = true
	}
	if banked {
		if om.DRAM.TCAS != nm.DRAM.TCAS || om.DRAM.TRCD != nm.DRAM.TRCD ||
			om.DRAM.TRP != nm.DRAM.TRP || om.DRAM.TBurst != nm.DRAM.TBurst {
			if dramTraffic != 0 {
				return fb("bound knob: banked DRAM timing was read (%d requests)", dramTraffic)
			}
			inert = true
		}
		if om.DRAM.BandwidthGBs != nm.DRAM.BandwidthGBs || om.DRAM.EpochCycles != nm.DRAM.EpochCycles {
			inert = true // banked model ignores the bandwidth cap
		}
	} else {
		if om.DRAM.TCAS != nm.DRAM.TCAS || om.DRAM.TRCD != nm.DRAM.TRCD ||
			om.DRAM.TRP != nm.DRAM.TRP || om.DRAM.TBurst != nm.DRAM.TBurst ||
			om.DRAM.Channels != nm.DRAM.Channels || om.DRAM.Banks != nm.DRAM.Banks ||
			om.DRAM.RowBytes != nm.DRAM.RowBytes {
			inert = true // simple model ignores the banked set
		}
		if om.DRAM.BandwidthGBs != nm.DRAM.BandwidthGBs || om.DRAM.EpochCycles != nm.DRAM.EpochCycles {
			eo, mo := mem.SimpleDRAMBudget(om.DRAM, s.ClockMHz, s.LineBytes)
			en, mn := mem.SimpleDRAMBudget(nm.DRAM, s.ClockMHz, s.LineBytes)
			// A changed budget refits when the recorded run never throttled
			// and the new budget dominates the old one on the same epoch
			// grid: every recorded epoch served at most the old budget, so
			// none reaches the new one, and inductively over ready order
			// every request still completes at arrival + MinLatency.
			switch {
			case (eo == en && mo == mn) || dramTraffic == 0:
				inert = true // quantized budget unchanged, or never read
			case r.DRAM.Throttled != 0:
				return fb("dram: recorded run was bandwidth-throttled (%d stalls)", r.DRAM.Throttled)
			case en != eo || mn < mo:
				return fb("dram: budget of %d lines per %d cycles does not cover the recorded %d lines per %d cycles", mn, en, mo, eo)
			default:
				refit = true
			}
		}
	}
	if om.DirInvCycles != nm.DirInvCycles {
		if om.Directory {
			return fb("bound knob: dir_inv_cycles under directory coherence")
		}
		inert = true
	}
	if hopCycles(s.NoC) != hopCycles(topo.NoC) {
		if s.HopsTotal != 0 {
			return fb("bound knob: hop_cycles was read (%d hops)", s.HopsTotal)
		}
		inert = true
	}

	// Accelerator models: re-invoke the offered model per recorded
	// invocation with the recorded inputs. The same answers leave the
	// recorded run untouched; any other answer could move a completion, so
	// it re-simulates.
	for k, inv := range s.Invocations {
		m := accels[inv.Name]
		if m == nil {
			return fb("accel: no model registered for %q", inv.Name)
		}
		resN, err := m.Invoke(append([]int64(nil), inv.Params...), inv.Concurrent)
		if err != nil {
			return fb("accel: %q invocation %d: %v", inv.Name, k, err)
		}
		if resN.Cycles != inv.Cycles || resN.Bytes != inv.Bytes || resN.EnergyPJ != inv.EnergyPJ {
			return fb("accel: model %q answers invocation %d differently (cycles %d -> %d, bytes %d -> %d, energy %g -> %g pJ)",
				inv.Name, k, inv.Cycles, resN.Cycles, inv.Bytes, resN.Bytes, inv.EnergyPJ, resN.EnergyPJ)
		}
	}

	// The recorded run must also fit the new cycle limit; a full simulation
	// would otherwise error out instead of producing it.
	newEff := limit
	if newEff <= 0 {
		newEff = soc.DefaultCycleLimit
	}
	if r.Cycles > newEff {
		return fb("limit: recorded run needs %d cycles, limit is %d", r.Cycles, newEff)
	}

	var fams []string
	switch {
	case refit && inert:
		fams = []string{"dram-refit", "inert-knob"}
	case refit:
		fams = []string{"dram-refit"}
	case inert:
		fams = []string{"inert-knob"}
	default:
		fams = []string{"identical"}
	}
	return Decision{Eligible: true, Families: fams}
}

func hopCycles(n *config.NoCConfig) int64 {
	if n == nil {
		return 0
	}
	return n.HopCycles
}
