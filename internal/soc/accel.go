package soc

import "fmt"

// accelManager owns the system's accelerator models and their outstanding
// invocations. Cores start invocations (through core.AccelInvoker) and take
// their completions through their own completion queues, so the manager is
// never stepped: it keeps, per accelerator, the completion cycles of the
// invocations it has issued, and releases those due by now at that
// accelerator's first invocation in a cycle. An invocation issued earlier in
// the same cycle stays outstanding even with a latency of 0, so concurrent
// invocations observe each other (§IV-B bandwidth sharing).
type accelManager struct {
	models map[string]AccelModel
	due    map[string]*accelDue

	EnergyPJ   float64
	Bytes      int64
	Calls      int64
	BusyCycles int64 // summed invocation latencies across all models

	// onInvoke, when non-nil, observes every successful invocation with the
	// exact model inputs and the model's answer (System.RecordSchedule).
	onInvoke func(name string, params []int64, concurrent int, res AccelResult)
}

// accelDue is one accelerator's outstanding invocations: their completion
// cycles, in no order, and the cycle whose due completions were last released.
type accelDue struct {
	at       []int64
	released int64
}

// Invoke implements core.AccelInvoker: it runs one accelerator invocation,
// querying the model with the current concurrency (§IV-A), charges energy and
// traffic, records the completion cycle and returns it.
func (a *accelManager) Invoke(name string, params []int64, now int64) (int64, error) {
	m, ok := a.models[name]
	if !ok {
		return 0, fmt.Errorf("soc: no accelerator model registered for %q", name)
	}
	d := a.due[name]
	if d == nil {
		d = &accelDue{released: -1}
		a.due[name] = d
	}
	if d.released < now {
		d.released = now
		keep := d.at[:0]
		for _, at := range d.at {
			if at > now {
				keep = append(keep, at)
			}
		}
		d.at = keep
	}
	concurrent := len(d.at)
	res, err := m.Invoke(params, concurrent)
	if err != nil {
		return 0, err
	}
	a.EnergyPJ += res.EnergyPJ
	a.Bytes += res.Bytes
	a.Calls++
	a.BusyCycles += res.Cycles
	at := now + res.Cycles
	d.at = append(d.at, at)
	if a.onInvoke != nil {
		a.onInvoke(name, params, concurrent, res)
	}
	return at, nil
}

// KindBreakdown aggregates the tiles of one kind: instructions (or
// accelerator invocations) retired, cycles spent doing work, and cycles lost
// to stalls. All are identical with cycle skipping on and off.
type KindBreakdown struct {
	Kind         string `json:"kind"`
	Tiles        int    `json:"tiles"`
	Instrs       int64  `json:"instrs"`
	ActiveCycles int64  `json:"active_cycles"`
	StallCycles  int64  `json:"stall_cycles"`
}

// TileBreakdown aggregates per-kind cycle and stall totals. The accelerator
// models come first, as kind "accel", and only when the run invoked one, so
// core-only runs report only core kinds; the core kinds follow in
// first-appearance order.
func (s *System) TileBreakdown() []KindBreakdown {
	var out []KindBreakdown
	idx := map[string]int{}
	if a := s.accel; a.Calls > 0 {
		idx["accel"] = 0
		out = append(out, KindBreakdown{Kind: "accel", Tiles: 1, Instrs: a.Calls, ActiveCycles: a.BusyCycles})
	}
	for i, c := range s.Cores {
		k := s.kinds[i]
		j, ok := idx[k]
		if !ok {
			j = len(out)
			idx[k] = j
			out = append(out, KindBreakdown{Kind: k})
		}
		st := c.Stats
		out[j].Tiles++
		out[j].Instrs += st.Instrs
		out[j].ActiveCycles += st.Cycles
		out[j].StallCycles += st.MAOStalls + st.FUStalls + st.WindowStalls + st.CommStalls
	}
	return out
}
