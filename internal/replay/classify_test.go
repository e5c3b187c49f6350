package replay

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/core"
	"mosaicsim/internal/soc"
)

// fixedModel answers every invocation with one result (or one error).
type fixedModel struct {
	res soc.AccelResult
	err error
}

func (m fixedModel) Invoke([]int64, int) (soc.AccelResult, error) { return m.res, m.err }

// classifyConfig is the configuration the hand-built schedule "ran" under:
// one out-of-order tile over Table II memory plus an LLC and a 2x2 mesh, so
// every classifiable knob exists.
func classifyConfig() *config.SystemConfig {
	m := config.TableIIMem()
	llc := *m.L2
	llc.Name = "LLC"
	m.LLC = &llc
	return &config.SystemConfig{
		Name:  "classify",
		Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 1}},
		Mem:   m,
		NoC:   &config.NoCConfig{MeshWidth: 2, HopCycles: 2},
	}
}

// scheduleFor assembles by hand what Recorder.Build would for a run of cfg
// that touched nothing: every binding count zero, no invocations, no DRAM
// traffic. Rows add the evidence their rule reads.
func scheduleFor(t *testing.T, cfg *config.SystemConfig) *Schedule {
	t.Helper()
	topo, err := soc.Resolve(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	return &Schedule{
		Topology:  *topo,
		Result:    soc.Result{Cycles: 1000, CoreStats: make([]core.Stats, len(topo.Tiles))},
		ClockMHz:  topo.RefClockMHz(),
		LineBytes: topo.Mem.L1.LineBytes,
	}
}

// classify resolves the offered config the way a session does and classifies
// it against s.
func classify(t *testing.T, s *Schedule, cfg *config.SystemConfig, models map[string]soc.AccelModel, limit int64) Decision {
	t.Helper()
	topo, err := soc.Resolve(cfg, false)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := CanonJSON(nil, topo)
	if err != nil {
		t.Fatal(err)
	}
	return Classify(s, topo, canon, models, limit)
}

// TestClassifyRules walks every rule of Classify both ways over a hand-built
// schedule: the delta with the recorded evidence that binds it (a fallback
// whose reason names the knob and the count, or the model and invocation)
// and the same delta without it (eligible, on the named proof family).
func TestClassifyRules(t *testing.T) {
	inv := Invocation{Name: "acc_x", Params: []int64{8, 8}, Cycles: 40, Bytes: 512, EnergyPJ: 1.5}
	same := map[string]soc.AccelModel{"acc_x": fixedModel{res: soc.AccelResult{Cycles: 40, Bytes: 512, EnergyPJ: 1.5}}}
	withInv := func(s *Schedule) { s.Invocations = []Invocation{inv} }
	// Five DRAM requests under a budget of 18 lines per 100 cycles at 24 GB/s
	// (37 at 48 GB/s, 9 at 12 GB/s, 18 per 50 cycles at 48 GB/s and epoch
	// 50; the tile clock is 2 GHz, lines are 64 B).
	withTraffic := func(s *Schedule) { s.Result.DRAM.Reads = 5 }
	banked := func(c *config.SystemConfig) { c.Mem.DRAM = config.BankedDRAMDefaults(24) }
	directory := func(c *config.SystemConfig) { c.Mem.Directory = true }

	cases := []struct {
		name   string
		base   func(c *config.SystemConfig) // applied before the schedule is built
		sched  func(s *Schedule)            // recorded evidence
		delta  func(c *config.SystemConfig) // the new run's config delta
		models map[string]soc.AccelModel
		limit  int64
		family string   // eligible on exactly this family when non-empty
		reason []string // otherwise a fallback whose reason contains each
	}{
		{name: "no-delta", family: "identical"},

		{name: "mispredict-penalty/unread", family: "inert-knob",
			delta: func(c *config.SystemConfig) { c.Cores[0].Core.MispredictPenalty += 7 }},
		{name: "mispredict-penalty/read", reason: []string{"tile 0 mispredict_penalty", "5 mispredicts"},
			sched: func(s *Schedule) { s.Result.CoreStats[0].Mispredict = 5 },
			delta: func(c *config.SystemConfig) { c.Cores[0].Core.MispredictPenalty += 7 }},
		{name: "atomic-extra-latency/unread", family: "inert-knob",
			delta: func(c *config.SystemConfig) { c.Cores[0].Core.AtomicExtraLatency += 3 }},
		{name: "atomic-extra-latency/read", reason: []string{"tile 0 atomic_extra_latency", "3 atomics"},
			sched: func(s *Schedule) { s.Result.CoreStats[0].Atomics = 3 },
			delta: func(c *config.SystemConfig) { c.Cores[0].Core.AtomicExtraLatency += 3 }},
		{name: "mem-class-latency/never-read", family: "inert-knob",
			sched: func(s *Schedule) { s.Result.CoreStats[0].Loads = 9 },
			delta: func(c *config.SystemConfig) { c.Cores[0].Core.Latencies = map[string]int64{"mem": 77} }},

		{name: "l1-latency/unread", family: "inert-knob",
			delta: func(c *config.SystemConfig) { c.Mem.L1.LatencyCycles++ }},
		{name: "l1-latency/read", reason: []string{"l1 latency_cycles", "7 accesses"},
			sched: func(s *Schedule) { s.Result.L1.Accesses = 7 },
			delta: func(c *config.SystemConfig) { c.Mem.L1.LatencyCycles++ }},
		{name: "l2-latency/unread", family: "inert-knob",
			delta: func(c *config.SystemConfig) { c.Mem.L2.LatencyCycles++ }},
		{name: "l2-latency/read-by-prefetch", reason: []string{"l2 latency_cycles", "2 accesses"},
			sched: func(s *Schedule) { s.Result.L2.PrefetchIssued = 2 },
			delta: func(c *config.SystemConfig) { c.Mem.L2.LatencyCycles++ }},
		{name: "llc-latency/unread", family: "inert-knob",
			delta: func(c *config.SystemConfig) { c.Mem.LLC.LatencyCycles++ }},
		{name: "llc-latency/read", reason: []string{"llc latency_cycles", "4 accesses"},
			sched: func(s *Schedule) { s.Result.LLC.Accesses = 4 },
			delta: func(c *config.SystemConfig) { c.Mem.LLC.LatencyCycles++ }},

		{name: "dram-min-latency/unread", family: "inert-knob",
			delta: func(c *config.SystemConfig) { c.Mem.DRAM.MinLatency += 50 }},
		{name: "dram-min-latency/read", reason: []string{"dram min_latency", "5 requests"},
			sched: withTraffic,
			delta: func(c *config.SystemConfig) { c.Mem.DRAM.MinLatency += 50 }},
		{name: "dram-min-latency/banked-never-reads-it", family: "inert-knob",
			base: banked, sched: func(s *Schedule) { s.Result.DRAM.Reads = 5 },
			delta: func(c *config.SystemConfig) { c.Mem.DRAM.MinLatency += 50 }},
		{name: "banked-timing/unread", family: "inert-knob",
			base:  banked,
			delta: func(c *config.SystemConfig) { c.Mem.DRAM.TCAS++ }},
		{name: "banked-timing/read", reason: []string{"banked DRAM timing", "6 requests"},
			base: banked, sched: func(s *Schedule) { s.Result.DRAM.Reads, s.Result.DRAM.Writebacks = 4, 2 },
			delta: func(c *config.SystemConfig) { c.Mem.DRAM.TCAS++ }},
		{name: "banked-bandwidth/never-read", family: "inert-knob",
			base: banked, sched: func(s *Schedule) { s.Result.DRAM.Reads = 5 },
			delta: func(c *config.SystemConfig) { c.Mem.DRAM.BandwidthGBs = 48 }},
		{name: "banked-set-under-simple/never-read", family: "inert-knob",
			sched: withTraffic,
			delta: func(c *config.SystemConfig) { c.Mem.DRAM.TRCD, c.Mem.DRAM.Banks = 28, 16 }},

		{name: "dram-bandwidth/no-traffic", family: "inert-knob",
			delta: func(c *config.SystemConfig) { c.Mem.DRAM.BandwidthGBs = 2 }},
		{name: "dram-bandwidth/same-quantised-budget", family: "inert-knob",
			sched: withTraffic,
			delta: func(c *config.SystemConfig) { c.Mem.DRAM.BandwidthGBs = 24.3 }},
		{name: "dram-refit/within-budget", family: "dram-refit",
			sched: withTraffic,
			delta: func(c *config.SystemConfig) { c.Mem.DRAM.BandwidthGBs = 48 }},
		{name: "dram-refit/other-epoch", reason: []string{"dram:", "18 lines per 50 cycles", "recorded 18 lines per 100 cycles"},
			sched: withTraffic,
			delta: func(c *config.SystemConfig) { c.Mem.DRAM.BandwidthGBs, c.Mem.DRAM.EpochCycles = 48, 50 }},
		{name: "dram-refit/over-budget", reason: []string{"dram:", "9 lines per 100 cycles", "recorded 18 lines per 100 cycles"},
			sched: withTraffic,
			delta: func(c *config.SystemConfig) { c.Mem.DRAM.BandwidthGBs = 12 }},
		{name: "dram-refit/throttled", reason: []string{"bandwidth-throttled", "3 stalls"},
			sched: func(s *Schedule) { withTraffic(s); s.Result.DRAM.Throttled = 3 },
			delta: func(c *config.SystemConfig) { c.Mem.DRAM.BandwidthGBs = 48 }},

		{name: "dir-inv-cycles/no-directory", family: "inert-knob",
			delta: func(c *config.SystemConfig) { c.Mem.DirInvCycles += 2 }},
		{name: "dir-inv-cycles/directory", reason: []string{"dir_inv_cycles under directory coherence"},
			base:  directory,
			delta: func(c *config.SystemConfig) { c.Mem.DirInvCycles += 2 }},
		{name: "hop-cycles/unread", family: "inert-knob",
			delta: func(c *config.SystemConfig) { c.NoC.HopCycles++ }},
		{name: "hop-cycles/read", reason: []string{"hop_cycles", "12 hops"},
			sched: func(s *Schedule) { s.HopsTotal = 12 },
			delta: func(c *config.SystemConfig) { c.NoC.HopCycles++ }},

		{name: "accel/same-answers", family: "identical", sched: withInv, models: same},
		{name: "accel/composes-with-inert-knob", family: "inert-knob", sched: withInv, models: same,
			delta: func(c *config.SystemConfig) { c.Mem.L1.LatencyCycles++ }},
		{name: "accel/cycles-differ", reason: []string{`model "acc_x"`, "invocation 0", "cycles 40 -> 41"},
			sched:  withInv,
			models: map[string]soc.AccelModel{"acc_x": fixedModel{res: soc.AccelResult{Cycles: 41, Bytes: 512, EnergyPJ: 1.5}}}},
		{name: "accel/bytes-differ", reason: []string{`model "acc_x"`, "invocation 0", "bytes 512 -> 1024"},
			sched:  withInv,
			models: map[string]soc.AccelModel{"acc_x": fixedModel{res: soc.AccelResult{Cycles: 40, Bytes: 1024, EnergyPJ: 1.5}}}},
		{name: "accel/energy-differs", reason: []string{`model "acc_x"`, "invocation 0", "energy 1.5 -> 2.5"},
			sched:  withInv,
			models: map[string]soc.AccelModel{"acc_x": fixedModel{res: soc.AccelResult{Cycles: 40, Bytes: 512, EnergyPJ: 2.5}}}},
		{name: "accel/second-invocation-differs", reason: []string{`model "acc_y"`, "invocation 1"},
			sched: func(s *Schedule) { s.Invocations = []Invocation{inv, {Name: "acc_y", Cycles: 9}} },
			models: map[string]soc.AccelModel{
				"acc_x": same["acc_x"],
				"acc_y": fixedModel{res: soc.AccelResult{Cycles: 10}},
			}},
		{name: "accel/missing-model", reason: []string{`no model registered for "acc_x"`},
			sched: withInv, models: map[string]soc.AccelModel{}},
		{name: "accel/model-errors", reason: []string{`"acc_x" invocation 0`, "bad params"},
			sched:  withInv,
			models: map[string]soc.AccelModel{"acc_x": fixedModel{err: errors.New("bad params")}}},

		{name: "limit/fits", family: "identical", limit: 1000},
		{name: "limit/exceeded", reason: []string{"limit:", "needs 1000 cycles, limit is 999"}, limit: 999},

		{name: "structural/tile-count", reason: []string{"structural", "1 tiles recorded, 2 requested"},
			delta: func(c *config.SystemConfig) { c.Cores[0].Count = 2 }},
		{name: "structural/issue-width", reason: []string{"structural"},
			delta: func(c *config.SystemConfig) { c.Cores[0].Core.IssueWidth++ }},
		{name: "structural/fabric-latency", reason: []string{"structural"},
			delta: func(c *config.SystemConfig) { two := int64(2); c.FabricLatency = &two }},
		{name: "schedule/core-stats-missing", reason: []string{"core stats missing"},
			sched: func(s *Schedule) { s.Result.CoreStats = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recorded, offered := classifyConfig(), classifyConfig()
			if tc.base != nil {
				tc.base(recorded)
				tc.base(offered)
			}
			s := scheduleFor(t, recorded)
			if tc.sched != nil {
				tc.sched(s)
			}
			if tc.delta != nil {
				tc.delta(offered)
			}
			d := classify(t, s, offered, tc.models, tc.limit)
			if tc.family != "" {
				if !d.Eligible || d.Reason != "" || !reflect.DeepEqual(d.Families, []string{tc.family}) {
					t.Fatalf("want eligible on [%s], got eligible=%v families=%v reason=%q", tc.family, d.Eligible, d.Families, d.Reason)
				}
				return
			}
			if d.Eligible || len(d.Families) != 0 {
				t.Fatalf("want a fallback, got eligible=%v families=%v", d.Eligible, d.Families)
			}
			for _, want := range tc.reason {
				if !strings.Contains(d.Reason, want) {
					t.Errorf("reason %q does not contain %q", d.Reason, want)
				}
			}
		})
	}
}

// TestClassifyFamiliesCompose: one decision can rest on both proofs, and the
// families come back sorted.
func TestClassifyFamiliesCompose(t *testing.T) {
	cfg := classifyConfig()
	s := scheduleFor(t, cfg)
	s.Result.DRAM.Reads = 2
	cfg.Mem.DRAM.BandwidthGBs = 48
	cfg.Mem.L1.LatencyCycles++
	d := classify(t, s, cfg, nil, 0)
	if want := []string{"dram-refit", "inert-knob"}; !d.Eligible || !reflect.DeepEqual(d.Families, want) {
		t.Fatalf("families = %v (eligible=%v, reason %q), want %v", d.Families, d.Eligible, d.Reason, want)
	}
}
