// Package replay is memoisation with a proof. One full timing simulation
// records a Schedule: the topology it ran under, its complete
// Result and every accelerator invocation with the answer the model gave.
// For a later run Classify proves the re-run would be identical — no delta,
// inert knobs, or a DRAM budget refit — and the hit is a copy of the
// recorded Result; anything else is a declared fallback to full simulation.
//
// The two proof families, each checkable from recorded evidence alone:
//
//   - inert-knob: a changed parameter that the recorded run provably never
//     read (binding counts derived from the recorded Result are zero — e.g.
//     MispredictPenalty with zero mispredicts, a cache latency with zero
//     accesses, the never-consulted mem-class latency). By determinism and
//     first-divergence induction the re-run is identical.
//   - dram-refit: SimpleDRAM bandwidth/epoch changes with recorded traffic.
//     The recorded run never throttled, and the new per-epoch line budget
//     dominates the recorded one on the same epoch length: no recorded epoch
//     served more than the old budget, so none reaches the new one, the new
//     run never throttles either, and every request still completes at
//     arrival + MinLatency.
//
// Accelerator models are a precondition, not a family: each recorded
// invocation is re-invoked against the offered model with the recorded
// inputs, and a different answer (cycles, bytes or energy) is a fallback
// naming the accelerator and the invocation. Nothing is ever adjusted: a
// change that could move a single event re-simulates — never a silently
// wrong number.
//
// A run finds its schedule by the hash of its topology's canonical form
// (CanonJSON, StructHash), and Classify first compares the two forms byte
// for byte. The form is JSON written by hand, without encoding/json or
// reflection, into a buffer the caller reuses: a hit pays for it on every
// attempt, and its bytes must stay those encoding/json produced, which the
// package's tests check against encoding/json as the oracle.
package replay

import (
	"mosaicsim/internal/core"
	"mosaicsim/internal/soc"
)

// Invocation is one recorded accelerator call: the inputs the model saw and
// the answer it gave.
type Invocation struct {
	Name       string
	Params     []int64
	Concurrent int
	Cycles     int64
	Bytes      int64
	EnergyPJ   float64
}

// Schedule is everything one recorded run keeps for Classify's proofs: the
// topology it ran under, its full Result with the cycle skipper's
// stepped/skipped split, and the recorded evidence.
type Schedule struct {
	// Topology is embedded so a persisted schedule keeps spelling it as
	// top-level Tiles, Mem, NoC and FabricLat. FabricLat is structural: a
	// latency delta reorders message arrivals, so schedules recorded at
	// different fabric latencies must never alias (schedules persisted before
	// it was recorded decode as 0 and conservatively mismatch the default
	// of 1).
	soc.Topology

	Result  soc.Result
	Stepped int64
	Skipped int64

	ClockMHz  int // system (max tile) clock: DRAM budget math
	LineBytes int // DRAM line size: DRAM budget math
	HopsTotal int64

	Invocations []Invocation

	// canon is the recorded topology's CanonJSON, kept so Classify does not
	// re-marshal it per hit. Never persisted; when nil, Classify computes it.
	canon []byte
}

// Recorder accumulates accelerator invocations during a run, and Build
// assembles the Schedule once the run completes.
type Recorder struct {
	invs []Invocation
}

// NewRecorder returns an empty recorder; attach it before Run with
// sys.RecordSchedule(rec.RecordInvoke).
func NewRecorder() *Recorder { return &Recorder{} }

// RecordInvoke is the soc.System.RecordSchedule hook.
func (r *Recorder) RecordInvoke(name string, params []int64, concurrent int, res soc.AccelResult) {
	r.invs = append(r.invs, Invocation{
		Name:       name,
		Params:     append([]int64(nil), params...),
		Concurrent: concurrent,
		Cycles:     res.Cycles,
		Bytes:      res.Bytes,
		EnergyPJ:   res.EnergyPJ,
	})
}

// Build assembles the Schedule for a completed run: the topology it ran
// under (shared, as topologies are immutable) with its CanonJSON, the
// Result, and the recorded evidence read back from the system.
func (r *Recorder) Build(t *soc.Topology, canon []byte, sys *soc.System, res soc.Result) *Schedule {
	maxClock := 0
	for _, rt := range t.Tiles {
		maxClock = max(maxClock, rt.Cfg.ClockMHz)
	}
	return &Schedule{
		Topology:    *t,
		Result:      deepCopyResult(res),
		Stepped:     sys.SteppedCycles,
		Skipped:     sys.SkippedCycles,
		ClockMHz:    maxClock,
		LineBytes:   t.Mem.L1.LineBytes,
		HopsTotal:   sys.Fabric.HopsTotal(),
		Invocations: r.invs,
		canon:       canon,
	}
}

// KeepCanon computes canon for a schedule not built by Build (an imported
// one), before it is shared. On an error none is kept; Classify reports it.
func (s *Schedule) KeepCanon() {
	s.canon, _ = CanonJSON(nil, &s.Topology)
}

// ResultCopy is what a replay hit returns: the recorded Result, sharing no
// slice with the schedule.
func (s *Schedule) ResultCopy() soc.Result { return deepCopyResult(s.Result) }

func deepCopyResult(r soc.Result) soc.Result {
	r.CoreStats = append([]core.Stats(nil), r.CoreStats...)
	return r
}
