package sim

import (
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"mosaicsim/internal/accel"
	"mosaicsim/internal/config"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/workloads"
)

// replayMemSrc is the matrix's workload: a reduction over A (real cache and
// DRAM traffic, so memory-latency knobs are provably bound) followed by an
// accelerator offload (so accelerator-model deltas have an invocation to
// re-invoke).
const replayMemSrc = `
void kernel(float* A, float* B, float* C, long dim) {
  long tid = tile_id();
  if (tid == 0) {
    float s = 0.0;
    for (long i = 0; i < dim*dim; i++) { s = s + A[i]; }
    C[0] = s;
    acc_sgemm(A, B, C, dim, dim, dim);
  }
}
`

// replayWorkload reuses the sgemm-accel setup (matrix allocation plus the
// functional accelerator registry) under the traffic-generating kernel.
func replayWorkload() *workloads.Workload {
	w := workloads.SGEMMAccel()
	w.Name = "replay-sgemm-mem"
	w.Src = replayMemSrc
	return w
}

var replayW = replayWorkload()

// cloneSys deep-copies a system config through JSON so matrix cases can
// mutate their own copy (configs carry maps and raw-JSON tile overrides).
func cloneSys(t *testing.T, sc *config.SystemConfig) *config.SystemConfig {
	t.Helper()
	b, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	var out config.SystemConfig
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// accelModelsAt builds closed-form accelerator models at a design point —
// the accelerator-model delta the replay matrix sweeps.
func accelModelsAt(lanes int, maxGBs float64) map[string]soc.AccelModel {
	dp := accel.DesignPoint{PLMBytes: 256 << 10, Lanes: lanes}
	out := map[string]soc.AccelModel{}
	for _, name := range []string{"acc_sgemm", "acc_histo", "acc_elementwise"} {
		out[name] = &accel.Model{
			Acc:       accel.ByName(name, dp),
			Mode:      accel.ModeClosedForm,
			SystemMHz: 2000,
			MaxMemGBs: maxGBs,
		}
	}
	return out
}

// replayBaseConfig is the matrix's recorded baseline: one out-of-order tile
// with a perfect branch predictor (so the mispredict-penalty knob is
// provably unread) over the Table II memory system.
func replayBaseConfig() *config.SystemConfig {
	c := config.OutOfOrderCore()
	c.Branch = config.BranchPerfect
	return &config.SystemConfig{
		Name:  "replay-matrix",
		Cores: []config.CoreSpec{{Core: c, Count: 1}},
		Mem:   config.TableIIMem(),
	}
}

// runLeg runs one sweep leg and returns the result plus the replay outcome.
func runLeg(t *testing.T, cache *Cache, cfg *config.SystemConfig, models map[string]soc.AccelModel, useReplay bool) (soc.Result, ReplayOutcome) {
	t.Helper()
	s, err := NewSession(Options{
		Workload: replayW,
		Scale:    workloads.Tiny,
		Config:   cfg,
		Accels:   models,
		Cache:    cache,
		Replay:   useReplay,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res, s.Replay()
}

// TestReplayEquivalenceMatrix is the replay engine's correctness bar: for a
// grid of timing-parameter deltas against one recorded schedule, every delta
// the classifier admits must replay to a Result bit-exactly equal to a full
// re-simulation, and every delta it must not admit falls back with a declared
// reason (and full simulation runs) — never a silently wrong number.
func TestReplayEquivalenceMatrix(t *testing.T) {
	cache := NewCache()
	base := replayBaseConfig()
	baseModels := accelModelsAt(4, 24)

	// The recording run: a full simulation that captures the schedule.
	recRes, recOut := runLeg(t, cache, cloneSys(t, base), baseModels, true)
	if recOut.Replayed {
		t.Fatal("first run replayed; nothing should be recorded yet")
	}
	if !recOut.Recorded {
		t.Fatalf("recording run did not publish a schedule (reason: %q)", recOut.Reason)
	}
	if recRes.AccelCalls == 0 {
		t.Fatal("baseline run made no accelerator calls; the matrix needs them")
	}
	if recRes.L1.Accesses == 0 || recRes.DRAM.Reads+recRes.DRAM.Writebacks == 0 {
		t.Fatalf("baseline run generated no memory traffic (L1 %d, DRAM %d); the bound-knob cases need it",
			recRes.L1.Accesses, recRes.DRAM.Reads+recRes.DRAM.Writebacks)
	}

	cases := []struct {
		name     string
		eligible bool
		family   string // required in Families when non-empty
		reason   string // required in the fallback Reason when non-empty
		mutate   func(sc *config.SystemConfig)
		models   map[string]soc.AccelModel // nil = baseline models
	}{
		{
			name: "identical", eligible: true, family: "identical",
			mutate: func(sc *config.SystemConfig) {},
		},
		{
			name: "mem-class-latency", eligible: true, family: "inert-knob",
			mutate: func(sc *config.SystemConfig) {
				sc.Cores[0].Core.Latencies = map[string]int64{"mem": 77}
			},
		},
		{
			name: "mispredict-penalty-perfect-branch", eligible: true, family: "inert-knob",
			mutate: func(sc *config.SystemConfig) {
				sc.Cores[0].Core.MispredictPenalty = 50
			},
		},
		{
			name: "atomic-extra-latency-no-atomics", eligible: true, family: "inert-knob",
			mutate: func(sc *config.SystemConfig) {
				sc.Cores[0].Core.AtomicExtraLatency = 9
			},
		},
		{
			name: "dram-bandwidth-up", eligible: true, family: "dram-refit",
			mutate: func(sc *config.SystemConfig) {
				sc.Mem.DRAM.BandwidthGBs += 24
			},
		},
		{
			// One more line per epoch: the smallest budget that dominates.
			name: "dram-bandwidth-up-1", eligible: true, family: "dram-refit",
			mutate: func(sc *config.SystemConfig) {
				sc.Mem.DRAM.BandwidthGBs++
			},
		},
		{
			name: "dram-bandwidth-up-72", eligible: true, family: "dram-refit",
			mutate: func(sc *config.SystemConfig) {
				sc.Mem.DRAM.BandwidthGBs += 72
			},
		},
		{
			name: "dram-bandwidth-down", eligible: false, reason: "recorded 18 lines per 100 cycles",
			mutate: func(sc *config.SystemConfig) {
				sc.Mem.DRAM.BandwidthGBs -= 8
			},
		},
		{
			name: "dram-epoch", eligible: false, reason: "lines per 50 cycles",
			mutate: func(sc *config.SystemConfig) {
				sc.Mem.DRAM.EpochCycles = 50
			},
		},
		{
			name: "banked-knobs-under-simple-model", eligible: true, family: "inert-knob",
			mutate: func(sc *config.SystemConfig) {
				sc.Mem.DRAM.TCAS, sc.Mem.DRAM.TRCD = 28, 28
				sc.Mem.DRAM.Banks = 16
			},
		},
		{
			// A model that answers a recorded invocation differently is
			// never adjusted for: the fallback names the model.
			name: "accel-slower", eligible: false, reason: `model "acc_sgemm" answers invocation 0 differently`,
			mutate: func(sc *config.SystemConfig) {},
			models: accelModelsAt(1, 24),
		},
		{
			name: "accel-faster", eligible: false, reason: `model "acc_sgemm" answers invocation 0 differently`,
			mutate: func(sc *config.SystemConfig) {},
			models: accelModelsAt(16, 24),
		},
		{
			name: "accel-same-point-rebuilt", eligible: true, family: "identical",
			mutate: func(sc *config.SystemConfig) {},
			models: accelModelsAt(4, 24),
		},
		{
			name: "l1-latency-with-accesses", eligible: false,
			mutate: func(sc *config.SystemConfig) {
				sc.Mem.L1.LatencyCycles = 3
			},
		},
		{
			name: "dram-min-latency-with-traffic", eligible: false,
			mutate: func(sc *config.SystemConfig) {
				sc.Mem.DRAM.MinLatency = 150
			},
		},
		{
			name: "l1-mshrs", eligible: false,
			mutate: func(sc *config.SystemConfig) {
				sc.Mem.L1.MSHRs = 4
			},
		},
		{
			name: "int-alu-latency", eligible: false,
			mutate: func(sc *config.SystemConfig) {
				sc.Cores[0].Core.Latencies = map[string]int64{"int_alu": 3}
			},
		},
		{
			name: "inorder-flip", eligible: false,
			mutate: func(sc *config.SystemConfig) {
				sc.Cores[0].Core.InOrder = true
			},
		},
		{
			name: "dram-model-switch", eligible: false,
			mutate: func(sc *config.SystemConfig) {
				sc.Mem.DRAM = config.BankedDRAMDefaults(24)
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			models := tc.models
			if models == nil {
				models = baseModels
			}
			fullRes, _ := runLeg(t, cache, cloneSys(t, func() *config.SystemConfig {
				sc := cloneSys(t, base)
				tc.mutate(sc)
				return sc
			}()), models, false)
			sc := cloneSys(t, base)
			tc.mutate(sc)
			replRes, out := runLeg(t, cache, sc, models, true)

			if !reflect.DeepEqual(replRes, fullRes) {
				t.Errorf("replay path result differs from full simulation:\nreplay: %+v\nfull:   %+v", replRes, fullRes)
			}
			if tc.eligible {
				if !out.Replayed {
					t.Fatalf("expected replay, got fallback: %q", out.Reason)
				}
				if tc.family != "" {
					found := false
					for _, f := range out.Families {
						if f == tc.family {
							found = true
						}
					}
					if !found {
						t.Errorf("families = %v, want %q included", out.Families, tc.family)
					}
				}
			} else {
				if out.Replayed {
					t.Fatalf("ineligible delta was replayed (families %v)", out.Families)
				}
				if out.Reason == "" {
					t.Error("fallback must carry a declared reason")
				}
				if !strings.Contains(out.Reason, tc.reason) {
					t.Errorf("fallback reason %q does not name %q", out.Reason, tc.reason)
				}
			}
		})
	}
}

// TestReplayBoundMispredictFallsBack pins the bound-knob side of the
// mispredict case: under a static predictor that actually mispredicts, a
// penalty delta must fall back (and full simulation must disagree with the
// recorded result, proving the fallback was load-bearing).
func TestReplayBoundMispredictFallsBack(t *testing.T) {
	cache := NewCache()
	base := replayBaseConfig()
	base.Cores[0].Core.Branch = config.BranchStatic
	baseModels := accelModelsAt(4, 24)

	recRes, recOut := runLeg(t, cache, cloneSys(t, base), baseModels, true)
	if !recOut.Recorded {
		t.Fatalf("recording run did not publish a schedule (reason: %q)", recOut.Reason)
	}
	if recRes.CoreStats[0].Mispredict == 0 {
		t.Skip("workload mispredicts nothing under the static predictor; bound-knob case not exercisable here")
	}

	sc := cloneSys(t, base)
	sc.Cores[0].Core.MispredictPenalty = 50
	replRes, out := runLeg(t, cache, sc, baseModels, true)
	if out.Replayed {
		t.Fatalf("penalty delta with %d mispredicts must not replay", recRes.CoreStats[0].Mispredict)
	}
	if out.Reason == "" {
		t.Error("fallback must carry a declared reason")
	}
	if replRes.Cycles == recRes.Cycles {
		t.Error("penalty delta did not change cycles; the case proves nothing")
	}
}

// TestReplayKnobFuzz is the property test: random perturbations of a menu of
// timing and structural knobs must either replay bit-exactly or declare a
// fallback — a silently wrong number is the one forbidden outcome.
func TestReplayKnobFuzz(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzzing many full simulations")
	}
	cache := NewCache()
	base := replayBaseConfig()
	const baseLanes = 4
	baseModels := accelModelsAt(baseLanes, 24)
	if _, out := runLeg(t, cache, cloneSys(t, base), baseModels, true); !out.Recorded {
		t.Fatalf("recording run did not publish a schedule (reason: %q)", out.Reason)
	}

	type knob struct {
		name  string
		apply func(sc *config.SystemConfig, r *rand.Rand) map[string]soc.AccelModel
	}
	lanes := baseLanes // the iteration's accelerator design point
	knobs := []knob{
		{"mem-latency", func(sc *config.SystemConfig, r *rand.Rand) map[string]soc.AccelModel {
			if sc.Cores[0].Core.Latencies == nil {
				sc.Cores[0].Core.Latencies = map[string]int64{}
			}
			sc.Cores[0].Core.Latencies["mem"] = int64(1 + r.Intn(100))
			return nil
		}},
		{"mispredict-penalty", func(sc *config.SystemConfig, r *rand.Rand) map[string]soc.AccelModel {
			sc.Cores[0].Core.MispredictPenalty = int64(1 + r.Intn(60))
			return nil
		}},
		{"atomic-latency", func(sc *config.SystemConfig, r *rand.Rand) map[string]soc.AccelModel {
			sc.Cores[0].Core.AtomicExtraLatency = int64(r.Intn(20))
			return nil
		}},
		{"dram-bandwidth", func(sc *config.SystemConfig, r *rand.Rand) map[string]soc.AccelModel {
			sc.Mem.DRAM.BandwidthGBs = float64(8 + r.Intn(96))
			return nil
		}},
		{"dram-min-latency", func(sc *config.SystemConfig, r *rand.Rand) map[string]soc.AccelModel {
			sc.Mem.DRAM.MinLatency = int64(50 + r.Intn(300))
			return nil
		}},
		{"l1-latency", func(sc *config.SystemConfig, r *rand.Rand) map[string]soc.AccelModel {
			sc.Mem.L1.LatencyCycles = int64(1 + r.Intn(5))
			return nil
		}},
		{"l1-mshrs", func(sc *config.SystemConfig, r *rand.Rand) map[string]soc.AccelModel {
			sc.Mem.L1.MSHRs = 2 + r.Intn(14)
			return nil
		}},
		{"issue-width", func(sc *config.SystemConfig, r *rand.Rand) map[string]soc.AccelModel {
			sc.Cores[0].Core.IssueWidth = 1 + r.Intn(8)
			return nil
		}},
		{"accel-lanes", func(sc *config.SystemConfig, r *rand.Rand) map[string]soc.AccelModel {
			lanes = 1 << r.Intn(5)
			return accelModelsAt(lanes, 24)
		}},
	}

	r := rand.New(rand.NewSource(20260809))
	for it := 0; it < 12; it++ {
		sc := cloneSys(t, base)
		models := baseModels
		lanes = baseLanes
		n := 1 + r.Intn(3)
		names := make([]string, 0, n)
		for j := 0; j < n; j++ {
			k := knobs[r.Intn(len(knobs))]
			names = append(names, k.name)
			if m := k.apply(sc, r); m != nil {
				models = m
			}
		}
		replRes, out := runLeg(t, cache, sc, models, true)
		if !out.Replayed && out.Reason == "" {
			t.Fatalf("iter %d (%v): fallback without a declared reason", it, names)
		}
		if out.Replayed && lanes != baseLanes {
			t.Fatalf("iter %d (%v): a %d-lane model replayed from the %d-lane schedule", it, names, lanes, baseLanes)
		}
		fullSC := cloneSys(t, sc)
		fullRes, _ := runLeg(t, cache, fullSC, models, false)
		if !reflect.DeepEqual(replRes, fullRes) {
			t.Fatalf("iter %d (%v): replayed=%v families=%v reason=%q\nreplay: %+v\nfull:   %+v",
				it, names, out.Replayed, out.Families, out.Reason, replRes, fullRes)
		}
	}
}

// TestSessionResolvesItsConfigOnce: everything a session does with its system
// goes through the Topology NewSession resolved, so a tile kind's preset is
// called once per tile definition for a recording run and once more for the
// next session's replay hit, not once per consumer (key, structural hash,
// classifier, builder, recorder).
func TestSessionResolvesItsConfigOnce(t *testing.T) {
	calls := 0
	soc.RegisterTileKind("counted-ooo", func() config.CoreConfig {
		calls++
		c := config.OutOfOrderCore()
		c.Branch = config.BranchPerfect
		return c
	})
	sc := func() *config.SystemConfig {
		return &config.SystemConfig{
			Name:  "counted",
			Tiles: []config.TileDef{{Kind: "counted-ooo", Overrides: json.RawMessage(`{"mispredict_penalty": 12}`)}},
			Mem:   config.TableIIMem(),
		}
	}
	cache, models := NewCache(), accelModelsAt(4, 24)
	if _, out := runLeg(t, cache, sc(), models, true); !out.Recorded || calls != 1 {
		t.Fatalf("recording run: recorded=%v (%q), preset called %d times, want once", out.Recorded, out.Reason, calls)
	}
	if _, out := runLeg(t, cache, sc(), models, true); !out.Replayed || calls != 2 {
		t.Fatalf("replay hit: replayed=%v (%q), preset called %d times in all, want twice", out.Replayed, out.Reason, calls)
	}
}

// TestReplayHitAllocsDoNotGrowWithTraffic: a dram-refit hit's proof reads
// the recorded DRAM counts, never the traffic itself, so a hit on a schedule
// that recorded ten times the DRAM reads allocates exactly what a hit on the
// recorded one does.
func TestReplayHitAllocsDoNotGrowWithTraffic(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	models := accelModelsAt(4, 24)
	refit := replayBaseConfig()
	refit.Mem.DRAM.BandwidthGBs = 48
	hitAllocs := func(scale int64) float64 {
		cache := NewCache()
		if _, out := runLeg(t, cache, replayBaseConfig(), models, true); !out.Recorded {
			t.Fatalf("recording run did not publish a schedule (reason: %q)", out.Reason)
		}
		for _, f := range cache.scheds.m {
			f.val.Result.DRAM.Reads *= scale
		}
		s, err := NewSession(Options{Workload: replayW, Scale: workloads.Tiny, Config: refit, Accels: models, Cache: cache, Replay: true})
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := s.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
		if out := s.Replay(); !out.Replayed || !slices.Contains(out.Families, "dram-refit") {
			t.Fatalf("%dx reads: want a dram-refit hit, got replayed=%v families=%v reason=%q", scale, out.Replayed, out.Families, out.Reason)
		}
		if rc := cache.ReplayCounters(); rc.Hits == 0 || rc.DRAMRefit != rc.Hits || rc.Identical != 0 {
			t.Fatalf("%dx reads: family census %+v, want every hit under dram-refit and none identical", scale, rc)
		}
		return allocs
	}
	short, long := hitAllocs(1), hitAllocs(10)
	if long != short {
		t.Fatalf("a dram-refit hit allocates %v objects on 10x the recorded DRAM reads, %v on the recorded ones", long, short)
	}
}

// sweepLegOptions runs sgemm at tiny scale on a sweep_grid system: one
// out-of-order tile over Table II memory, with the mem-class latency and the
// DRAM bandwidth a sweep leg draws.
func sweepLegOptions(cache *Cache, memLat int64, gbs float64, replay bool) Options {
	core := config.OutOfOrderCore()
	core.Latencies = map[string]int64{"mem": memLat}
	sc := config.Homogeneous("hit", core, 1, config.TableIIMem())
	sc.Mem.DRAM.BandwidthGBs = gbs
	return Options{Workload: workloads.ByName("sgemm"), Scale: workloads.Tiny, Config: sc, Cache: cache, Replay: replay}
}

// TestOlderScheduleBlobHits imports a schedule blob that an older build,
// which marshalled the canonical form with encoding/json, exported from the
// sweepLegOptions(1, 24) run. It must import under its own name and answer a
// timing-only leg with the Result a full run computes: the hand-written form
// hashes and compares as the marshalled one did.
func TestOlderScheduleBlobHits(t *testing.T) {
	const name = "sched-1df7faf11e2ed3a32030c53fb61ddb01"
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	cache := NewCache()
	if err := cache.ImportArtifact(name, data); err != nil {
		t.Fatal(err)
	}
	run := func(opts Options) (soc.Result, ReplayOutcome) {
		t.Helper()
		s, err := NewSession(opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, s.Replay()
	}
	got, out := run(sweepLegOptions(cache, 40, 60, true))
	if !out.Replayed || !reflect.DeepEqual(out.Families, []string{"dram-refit", "inert-knob"}) {
		t.Fatalf("want a dram-refit and inert-knob hit on the imported schedule, got %+v", out)
	}
	if full, _ := run(sweepLegOptions(NewCache(), 40, 60, false)); !reflect.DeepEqual(got, full) {
		t.Fatalf("hit on the imported schedule differs from a full run:\n got %+v\nwant %+v", got, full)
	}
}

// TestReplayHitAllocs pins what a sweep_grid-style hit allocates: a one-tile
// sgemm leg whose mem-class latency and DRAM bandwidth moved (inert-knob and
// dram-refit) costs the decision's family list and the Result copy. The
// canonical form is written into a recycled buffer, and the replay package
// needs no encoding/json for it (TestCanonNeedsNoEncodingJSON); marshalling
// it cost four allocations more.
func TestReplayHitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts do not repeat under -race")
	}
	cache := NewCache()
	rec, err := NewSession(sweepLegOptions(cache, 1, 24, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Run(context.Background()); err != nil || !rec.Replay().Recorded {
		t.Fatalf("recording run: err %v, outcome %+v", err, rec.Replay())
	}
	s, err := NewSession(sweepLegOptions(cache, 40, 60, true))
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if out := s.Replay(); !out.Replayed || !reflect.DeepEqual(out.Families, []string{"dram-refit", "inert-knob"}) {
		t.Fatalf("want a dram-refit and inert-knob hit, got %+v", out)
	}
	if allocs > 2 {
		t.Fatalf("a replay hit allocates %v objects, want at most 2", allocs)
	}
}

// leg is one replay-on run of the matrix's workload, for legs run off the
// test goroutine.
type leg struct {
	res soc.Result
	out ReplayOutcome
	err error
}

// runLegCtx runs cfg on cache under ctx with the baseline models; tweak, when
// non-nil, adjusts the session's options.
func runLegCtx(ctx context.Context, cache *Cache, cfg *config.SystemConfig, tweak func(*Options)) leg {
	opts := Options{Workload: replayW, Scale: workloads.Tiny, Config: cfg, Accels: accelModelsAt(4, 24), Cache: cache, Replay: true}
	if tweak != nil {
		tweak(&opts)
	}
	s, err := NewSession(opts)
	if err != nil {
		return leg{err: err}
	}
	res, err := s.Run(ctx)
	return leg{res, s.Replay(), err}
}

// TestConcurrentLegsRecordOnce: legs that ask for one schedule at once share
// one recording. One runs in full and records; every other waits for it and
// hits on "identical", with the same Result.
func TestConcurrentLegsRecordOnce(t *testing.T) {
	const n = 4
	cache := NewCache()
	legs := make(chan leg, n)
	for range n {
		go func() { legs <- runLegCtx(context.Background(), cache, replayBaseConfig(), nil) }()
	}
	want, _ := runLeg(t, NewCache(), replayBaseConfig(), accelModelsAt(4, 24), false)
	recorded := 0
	for range n {
		l := <-legs
		if l.err != nil {
			t.Fatal(l.err)
		}
		if !reflect.DeepEqual(l.res, want) {
			t.Errorf("a leg's result differs from a full run:\nleg:  %+v\nfull: %+v", l.res, want)
		}
		switch {
		case l.out.Recorded:
			recorded++
		case !l.out.Replayed || !reflect.DeepEqual(l.out.Families, []string{"identical"}):
			t.Errorf("a leg neither recorded nor hit on identical: %+v", l.out)
		}
	}
	if rc := cache.ReplayCounters(); recorded != 1 || rc != (ReplayCounters{Hits: n - 1, Recorded: 1, Identical: n - 1}) {
		t.Fatalf("%d legs recorded, counters %+v; want one recording and %d identical hits", recorded, rc, n-1)
	}
}

// waitingCtx closes waiting at its first Done call: a leg asks for Done only
// when it blocks on a schedule another leg is recording.
type waitingCtx struct {
	context.Context
	waiting chan struct{}
	once    sync.Once
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestScheduleSlotReleasesWaiters: a recording leg that fails or is
// cancelled releases the leg waiting on its schedule, which then records in
// its place; a waiter whose own context ends returns at once.
func TestScheduleSlotReleasesWaiters(t *testing.T) {
	want, _ := runLeg(t, NewCache(), replayBaseConfig(), accelModelsAt(4, 24), false)
	for _, tc := range []struct {
		name  string
		limit int64 // the recording leg's cycle limit
	}{
		{"recorder-fails", 1},
		{"recorder-cancelled", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cache := NewCache()
			wctx := &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}
			waiter := make(chan leg, 1)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			started := false
			// The recording leg's first progress update starts the waiter
			// and returns once it blocks on the slot, then ends the leg: at
			// its cycle limit, or by cancelling it.
			rec := runLegCtx(ctx, cache, replayBaseConfig(), func(o *Options) {
				o.Limit = tc.limit
				o.Progress = func(u soc.ProgressUpdate) {
					if started || u.Final != (tc.limit != 0) {
						return
					}
					started = true
					go func() { waiter <- runLegCtx(wctx, cache, replayBaseConfig(), nil) }()
					<-wctx.waiting
					cancel()
				}
			})
			if !started {
				t.Fatal("the recording leg never reported progress")
			}
			if rec.err == nil || errors.Is(rec.err, context.Canceled) != (tc.limit == 0) {
				t.Fatalf("recording leg: err = %v", rec.err)
			}
			w := <-waiter
			if w.err != nil || !w.out.Recorded || !reflect.DeepEqual(w.res, want) {
				t.Fatalf("waiter: err %v, outcome %+v, result equal %v; want it to record the full run", w.err, w.out, reflect.DeepEqual(w.res, want))
			}
			if rc := cache.ReplayCounters(); rc != (ReplayCounters{Recorded: 1}) {
				t.Fatalf("counters %+v, want one recording", rc)
			}
		})
	}
	t.Run("waiter-cancelled", func(t *testing.T) {
		c := NewCache()
		_, publish, _ := c.awaitSchedule(context.Background(), Key{Kernel: "k"}, 1)
		defer publish(nil)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if s, pub, err := c.awaitSchedule(ctx, Key{Kernel: "k"}, 1); s != nil || pub != nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter under a cancelled context: schedule %v, publish %v, err %v; want context.Canceled alone", s, pub != nil, err)
		}
	})
}
