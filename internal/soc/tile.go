package soc

import (
	"fmt"

	"mosaicsim/internal/core"
	"mosaicsim/internal/mem"
)

// Tile is the Interleaver's unit of composition (§II, §V-A): anything that
// advances under the system clock — a core, an accelerator manager, a future
// DMA engine — implements Tile and the Run loop steps it generically. The
// contract the event-horizon skipper depends on (see DESIGN.md):
//
//   - Step(now) advances the tile by one of its own clock cycles and reports
//     whether it is actively working. Step must be deterministic in the
//     system state: a step that leaves the tile's Progress() unchanged (a
//     "frozen" step) changes nothing, and the next one would repeat it, until
//     some component's Progress() moves. Stall time is charged at the next
//     real step, so the steps a jump elides need no accounting of their own.
//   - Progress() is a monotone counter that changes iff the tile's
//     architectural state changed, and only inside the tile's own Step (the
//     loop compares each post-step reading with the previous one and keeps
//     a running sum). It is the skipper's freeze detector.
//   - NextEvent(now) is the earliest future cycle at which a frozen tile
//     could act (mem.HorizonNone when it is waiting purely on others). It
//     may be conservative (early) but never late: skipping jumps to the
//     minimum horizon across tiles, so a late answer would elide a cycle in
//     which the tile had work.
//   - Done() tiles are excluded from freeze confirmation and horizons.
type Tile interface {
	// Kind labels the tile's model family ("ooo", "inorder", "accel", ...)
	// for per-kind breakdowns.
	Kind() string
	// ClockMHz is the tile's clock; the Interleaver derives the per-tile
	// step stride from the ratio against the fastest tile.
	ClockMHz() int
	Step(now int64) bool
	Done() bool
	Progress() uint64
	NextEvent(now int64) int64
	// Stats reports the tile's contribution to per-kind breakdowns.
	Stats() TileStats
}

// TileStats is one tile's contribution to a per-kind breakdown: instructions
// (or invocations) retired, cycles spent doing work, and cycles lost to
// stalls. All three are identical with cycle skipping on and off.
type TileStats struct {
	Instrs       int64
	ActiveCycles int64
	StallCycles  int64
}

// CoreTile adapts a core.Core to the Tile interface.
type CoreTile struct {
	C    *core.Core
	kind string
}

// Kind returns the core preset name ("ooo", "inorder", ...).
func (t *CoreTile) Kind() string { return t.kind }

// ClockMHz implements Tile.
func (t *CoreTile) ClockMHz() int { return t.C.Cfg.ClockMHz }

// Step implements Tile.
func (t *CoreTile) Step(now int64) bool { return t.C.Step(now) }

// Done implements Tile.
func (t *CoreTile) Done() bool { return t.C.Done() }

// Progress implements Tile.
func (t *CoreTile) Progress() uint64 { return t.C.Progress() }

// NextEvent implements Tile.
func (t *CoreTile) NextEvent(now int64) int64 { return t.C.NextEvent(now) }

// Stats implements Tile.
func (t *CoreTile) Stats() TileStats {
	s := t.C.Stats
	return TileStats{
		Instrs:       s.Instrs,
		ActiveCycles: s.Cycles,
		StallCycles:  s.MAOStalls + s.FUStalls + s.WindowStalls + s.CommStalls,
	}
}

// AccelTile owns the system's accelerator models and their outstanding
// invocations. It is a passive tile: invocations are started by cores
// (through core.AccelInvoker) and their completions are delivered through the
// invoking core's completion queue, so the accelerator tile itself never
// holds the system alive (Done is always true), never registers progress,
// and never feeds the horizon — its one job per step is retiring invocations
// whose completion cycle has been reached so concurrent invocations observe
// each other (§IV-B bandwidth sharing).
type AccelTile struct {
	models      map[string]AccelModel
	outstanding map[string]int
	events      accelEventHeap // scheduled outstanding[] decrements

	clockMHz   int // system clock: the accel manager steps every cycle
	EnergyPJ   float64
	Bytes      int64
	Calls      int64
	BusyCycles int64 // summed invocation latencies across all models

	// onInvoke, when non-nil, observes every successful invocation with the
	// exact model inputs and the model's answer (System.RecordSchedule).
	onInvoke func(name string, params []int64, concurrent int, res AccelResult)
}

// newAccelTile builds the accelerator manager for a system whose fastest
// tile runs at clockMHz.
func newAccelTile(models map[string]AccelModel, clockMHz int) *AccelTile {
	return &AccelTile{models: models, outstanding: map[string]int{}, clockMHz: clockMHz}
}

// Kind implements Tile.
func (t *AccelTile) Kind() string { return "accel" }

// ClockMHz implements Tile: the manager runs on the system clock so due
// invocations retire on the cycle they complete.
func (t *AccelTile) ClockMHz() int { return t.clockMHz }

// Step retires invocations whose completion cycle has been reached. It never
// reports activity: pending decrements must not keep a finished system
// running, exactly as the pre-tile Interleaver behaved.
func (t *AccelTile) Step(now int64) bool {
	for t.events.Len() > 0 && t.events[0].at <= now {
		ev := t.events.pop()
		t.outstanding[ev.name]--
	}
	return false
}

// Done implements Tile; the accelerator manager is always passive.
func (t *AccelTile) Done() bool { return true }

// Progress implements Tile. Retiring an invocation is not architectural
// progress — nothing a frozen core could observe changes until it re-invokes
// — so the counter is constant and the tile never blocks a horizon jump.
func (t *AccelTile) Progress() uint64 { return 0 }

// NextEvent implements Tile: completion delivery is owned by the invoking
// core's horizon, so the manager itself never bounds a jump.
func (t *AccelTile) NextEvent(now int64) int64 { return mem.HorizonNone }

// Stats implements Tile: invocations as "instructions", summed invocation
// latency as active cycles.
func (t *AccelTile) Stats() TileStats {
	return TileStats{Instrs: t.Calls, ActiveCycles: t.BusyCycles}
}

// Invoke implements core.AccelInvoker: it runs one accelerator invocation,
// querying the model with the current concurrency (§IV-A), charges energy and
// traffic, schedules the outstanding-count decrement at the completion cycle
// and returns that cycle.
func (t *AccelTile) Invoke(name string, params []int64, now int64) (int64, error) {
	m, ok := t.models[name]
	if !ok {
		return 0, fmt.Errorf("soc: no accelerator model registered for %q", name)
	}
	concurrent := t.outstanding[name]
	res, err := m.Invoke(params, concurrent)
	if err != nil {
		return 0, err
	}
	t.outstanding[name]++
	t.EnergyPJ += res.EnergyPJ
	t.Bytes += res.Bytes
	t.Calls++
	t.BusyCycles += res.Cycles
	at := now + res.Cycles
	// The invocation stays outstanding until simulated time reaches its
	// completion cycle: Step drains the decrement there, so overlapping
	// invocations observe each other and the §IV-B bandwidth-sharing model
	// engages.
	t.events.push(accelEvent{at: at, name: name})
	if t.onInvoke != nil {
		t.onInvoke(name, params, concurrent, res)
	}
	return at, nil
}

// KindBreakdown aggregates TileStats over every tile of one kind.
type KindBreakdown struct {
	Kind         string `json:"kind"`
	Tiles        int    `json:"tiles"`
	Instrs       int64  `json:"instrs"`
	ActiveCycles int64  `json:"active_cycles"`
	StallCycles  int64  `json:"stall_cycles"`
}

// TileBreakdown aggregates per-kind cycle and stall totals across the
// system's tiles, in first-appearance order. The accelerator manager appears
// (as kind "accel") only when the run actually invoked a fixed-function
// accelerator, so core-only runs report only core kinds.
func (s *System) TileBreakdown() []KindBreakdown {
	var out []KindBreakdown
	idx := map[string]int{}
	for _, t := range s.tiles {
		if at, ok := t.(*AccelTile); ok && (len(at.models) == 0 || at.Calls == 0) {
			continue
		}
		k := t.Kind()
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, KindBreakdown{Kind: k})
		}
		st := t.Stats()
		out[i].Tiles++
		out[i].Instrs += st.Instrs
		out[i].ActiveCycles += st.ActiveCycles
		out[i].StallCycles += st.StallCycles
	}
	return out
}
