package sim

import (
	"context"
	"reflect"
	"testing"

	"mosaicsim/internal/ir"
	"mosaicsim/internal/workloads"
)

// TestKeySeparatesOptLevels pins the cache-aliasing hazard closed: the same
// source at different opt configs must never share a cache key, while an
// explicit O0 and the zero config (which compile identically by
// construction) must share one.
func TestKeySeparatesOptLevels(t *testing.T) {
	w := workloads.ByName("sgemm")
	o0 := w.WithOpt(ir.OptConfig{Level: "O0"})
	cse := w.WithOpt(ir.OptConfig{Passes: []string{"cse"}})
	o2 := w.WithOpt(ir.OptConfig{Level: "O2"})
	o2u8 := w.WithOpt(ir.OptConfig{Level: "O2", Unroll: 8})

	kDefault := KeyFor(w, workloads.Small, SliceNone, []string{""})
	k0 := KeyFor(o0, workloads.Small, SliceNone, []string{""})
	kCSE := KeyFor(cse, workloads.Small, SliceNone, []string{""})
	k2 := KeyFor(o2, workloads.Small, SliceNone, []string{""})
	k2u8 := KeyFor(o2u8, workloads.Small, SliceNone, []string{""})

	if kDefault != k0 {
		t.Error("explicit O0 and the default config diverge; O0 is bit-identical and must share cache entries")
	}
	distinct := map[Key]string{k0: "O0", kCSE: "cse", k2: "O2", k2u8: "O2u8"}
	if len(distinct) != 4 {
		t.Fatalf("opt-level keys collide: O0=%v cse=%v O2=%v O2u8=%v", k0, kCSE, k2, k2u8)
	}
}

// TestReplayOptLevelDeltaFallsBack extends the replay equivalence matrix
// along the software axis: a schedule recorded at O0 must never answer a
// run of the same source at O2. The opt hash lives in the cache key, so
// the O2 leg finds no schedule, declares why, runs the full simulation,
// and matches a from-scratch O2 simulation bit for bit.
func TestReplayOptLevelDeltaFallsBack(t *testing.T) {
	cache := NewCache()
	base := replayBaseConfig()
	models := accelModelsAt(4, 24)

	_, recOut := runLeg(t, cache, cloneSys(t, base), models, true)
	if !recOut.Recorded {
		t.Fatalf("recording run did not publish a schedule (reason: %q)", recOut.Reason)
	}

	optW := replayW.WithOpt(ir.OptConfig{Level: "O2"})
	run := func(useReplay bool) (interface{}, ReplayOutcome) {
		s, err := NewSession(Options{
			Workload: optW,
			Scale:    workloads.Tiny,
			Config:   cloneSys(t, base),
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

	fullRes, _ := run(false)
	replRes, out := run(true)

	if !out.Attempted {
		t.Fatal("replay was not attempted despite Replay: true")
	}
	if out.Replayed {
		t.Fatal("an opt-level delta replayed from an O0 schedule; opt levels must never alias")
	}
	if out.Reason == "" {
		t.Error("fallback must carry a declared reason")
	}
	if !reflect.DeepEqual(replRes, fullRes) {
		t.Errorf("fallback result differs from full simulation:\nreplay path: %+v\nfull:        %+v", replRes, fullRes)
	}
}
