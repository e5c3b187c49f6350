package testgen

import (
	"fmt"
	"reflect"
	"testing"

	"mosaicsim/internal/ir"
	"mosaicsim/internal/soc"
)

// TestGeneratedKernelEquivalence is the tentpole differential test: 200
// random kernels, each compiled at every standard opt level, must produce
// bit-identical memory images in the interpreter.
func TestGeneratedKernelEquivalence(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := 0; seed < seeds; seed++ {
		seed := int64(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			checkSeed(t, seed)
		})
	}
}

func checkSeed(t *testing.T, seed int64) {
	t.Helper()
	src := Source(seed)
	base, err := Snapshot(src, ir.OptConfig{Level: "O0"})
	if err != nil {
		t.Fatalf("seed %d: O0 failed: %v\nsource:\n%s", seed, err, src)
	}
	for _, opt := range Levels()[1:] {
		got, err := Snapshot(src, opt)
		if err != nil {
			t.Fatalf("seed %d: %s failed: %v\nsource:\n%s", seed, opt, err, src)
		}
		for i := range base {
			if got[i] != base[i] {
				region, idx := "A", i
				if i >= 2*N {
					region, idx = "F", i-2*N
				} else if i >= N {
					region, idx = "B", i-N
				}
				t.Fatalf("seed %d: %s diverges from O0 at %s[%d]: %#x != %#x\nsource:\n%s",
					seed, opt, region, idx, got[i], base[i], src)
			}
		}
	}
}

// TestSourceDeterministic pins the generator contract: same seed, same
// kernel — required for fuzz-corpus reproducibility.
func TestSourceDeterministic(t *testing.T) {
	if Source(7) != Source(7) {
		t.Fatal("Source is not deterministic for a fixed seed")
	}
	if Source(7) == Source(8) {
		t.Fatal("Source ignores its seed")
	}
}

// TestSnapshotRejectsBadSource checks that compile failures surface as
// errors, not panics — the contract the fuzz target relies on.
func TestSnapshotRejectsBadSource(t *testing.T) {
	if _, err := Snapshot("void kernel(long* A) { A[0] = ; }", ir.OptConfig{}); err == nil {
		t.Fatal("expected a compile error for malformed source")
	}
}

// FuzzPassPipeline drives the full pipeline from a fuzzed seed: generate a
// kernel, run it at every opt level, and require interp-equivalence. The
// fuzzer explores the seed space rather than raw source text so every
// input is a well-typed, in-bounds, terminating kernel; any failure is a
// compiler bug by construction.
func FuzzPassPipeline(f *testing.F) {
	for s := int64(0); s < 16; s++ {
		f.Add(s)
	}
	f.Add(int64(-1))
	f.Add(int64(1) << 40)
	f.Fuzz(func(t *testing.T, seed int64) {
		checkSeed(t, seed)
	})
}

// TestTopologyDrawsValidSystems checks Topology's contract over seeds
// 1..1000: every draw resolves (Validate included) and is a function of its
// seed, and every knob reaches both ends of its range somewhere.
func TestTopologyDrawsValidSystems(t *testing.T) {
	lo, hi := map[string]bool{}, map[string]bool{}
	for seed := int64(1); seed <= 1000; seed++ {
		sc := topology(seed, func(knob string, v int) {
			r := topoKnobs[knob]
			lo[knob] = lo[knob] || v == r[0]
			hi[knob] = hi[knob] || v == r[1]
		})
		if _, err := soc.Resolve(sc, false); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(sc, Topology(seed)) {
			t.Fatalf("seed %d: two draws differ", seed)
		}
	}
	for knob, r := range topoKnobs {
		if !lo[knob] || !hi[knob] {
			t.Errorf("knob %s never drew its minimum %d (%v) or its maximum %d (%v)", knob, r[0], lo[knob], r[1], hi[knob])
		}
	}
}
