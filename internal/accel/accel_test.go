package accel

import (
	"math"
	"testing"
	"testing/quick"

	"mosaicsim/internal/interp"
)

func sgemmParams(dim int64) []int64 { return []int64{0, 0, 0, dim, dim, dim} }

func TestPipelineFastForwardMatchesExplicit(t *testing.T) {
	// The fast-forwarded pipeline recurrence must equal chunk-by-chunk
	// simulation. Re-simulate explicitly with Count split into unit groups.
	acc := NewSGEMM(DesignPoint{PLMBytes: 16 << 10, Lanes: 16})
	params := sgemmParams(96)
	fast, err := acc.SimulatePipeline(params)
	if err != nil {
		t.Fatal(err)
	}
	groups, _ := acc.Plan(params, acc.DP)
	explicit := &Accelerator{
		Name: acc.Name, DP: acc.DP, PowerW: acc.PowerW, ClockMHz: acc.ClockMHz,
		DMABytesPerCycle: acc.DMABytesPerCycle, NoCHops: acc.NoCHops,
		Plan: func([]int64, DesignPoint) ([]Group, error) {
			var out []Group
			for _, g := range groups {
				for i := int64(0); i < g.Count; i++ {
					out = append(out, Group{Chunk: g.Chunk, Count: 1})
				}
			}
			return out, nil
		},
	}
	slow, err := explicit.SimulatePipeline(params)
	if err != nil {
		t.Fatal(err)
	}
	if fast != slow {
		t.Errorf("fast-forward %d != explicit %d", fast, slow)
	}
}

func TestClosedFormTracksPipeline(t *testing.T) {
	// Fig. 10d: the generic model is 97-100% accurate vs RTL simulation.
	for _, name := range []string{"acc_sgemm", "acc_histo", "acc_elementwise"} {
		for _, dp := range PLMSweep() {
			acc := ByName(name, dp)
			for _, wl := range WorkloadSweep() {
				params := paramsForWorkload(name, wl)
				pipe, err := acc.SimulatePipeline(params)
				if err != nil {
					t.Fatal(err)
				}
				cf, err := acc.ClosedForm(params)
				if err != nil {
					t.Fatal(err)
				}
				ratio := float64(cf) / float64(pipe)
				if ratio < 0.9 || ratio > 1.1 {
					t.Errorf("%s plm=%d wl=%d: closed-form/pipeline = %.3f (pipe=%d cf=%d)",
						name, dp.PLMBytes, wl, ratio, pipe, cf)
				}
			}
		}
	}
}

// paramsForWorkload builds invocation parameters whose total data volume is
// approximately total bytes (as in Fig. 10's workload sizes).
func paramsForWorkload(name string, totalBytes int64) []int64 {
	switch name {
	case "acc_sgemm":
		// 3 square f32 matrices: 3·d²·4 = total.
		d := int64(math.Sqrt(float64(totalBytes) / 12))
		return []int64{0, 0, 0, d, d, d}
	case "acc_histo":
		return []int64{0, totalBytes / 4, 0, 256}
	default: // elementwise: 3 vectors
		return []int64{0, 0, 0, totalBytes / 12}
	}
}

func TestFPGASlowerThanPipeline(t *testing.T) {
	for _, name := range []string{"acc_sgemm", "acc_histo", "acc_elementwise"} {
		acc := ByName(name, DesignPoint{PLMBytes: 64 << 10, Lanes: 16})
		params := paramsForWorkload(name, 1<<20)
		pipe, _ := acc.SimulatePipeline(params)
		fpga, _ := acc.EmulateFPGA(params)
		if fpga <= pipe {
			t.Errorf("%s: FPGA emulation (%d) must exceed RTL pipeline (%d)", name, fpga, pipe)
		}
		ratio := float64(pipe) / float64(fpga)
		if ratio < 0.8 {
			t.Errorf("%s: model-vs-FPGA accuracy %.2f implausibly low", name, ratio)
		}
	}
}

func TestLargerPLMIsFasterOrEqual(t *testing.T) {
	// Fig. 10a-c: bigger PLMs reduce execution time (fewer, larger chunks).
	for _, name := range []string{"acc_sgemm", "acc_histo", "acc_elementwise"} {
		var prev int64 = math.MaxInt64
		for _, dp := range PLMSweep() {
			acc := ByName(name, dp)
			cycles, err := acc.SimulatePipeline(paramsForWorkload(name, 4<<20))
			if err != nil {
				t.Fatal(err)
			}
			if cycles > prev {
				t.Errorf("%s: PLM %d slower (%d) than smaller PLM (%d)", name, dp.PLMBytes, cycles, prev)
			}
			prev = cycles
		}
	}
}

func TestAreaGrowsWithPLM(t *testing.T) {
	var prev float64
	for _, dp := range PLMSweep() {
		a := NewSGEMM(dp).AreaUM2()
		if a <= prev {
			t.Errorf("area not monotone in PLM: %g after %g", a, prev)
		}
		prev = a
	}
	// Fig. 10 plots areas in the 1e5..1e6 um² band.
	small := NewSGEMM(PLMSweep()[0]).AreaUM2()
	big := NewSGEMM(PLMSweep()[3]).AreaUM2()
	if small < 5e4 || big > 5e6 {
		t.Errorf("area band off: %g .. %g", small, big)
	}
}

func TestBytesExpression(t *testing.T) {
	acc := NewElementwise(DesignPoint{PLMBytes: 64 << 10, Lanes: 16})
	n := int64(100000)
	bytes, err := acc.Bytes([]int64{0, 0, 0, n})
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * n * 4 // two loads + one store per element
	if bytes != want {
		t.Errorf("bytes = %d, want %d", bytes, want)
	}
}

func TestModelConcurrencyStretch(t *testing.T) {
	acc := NewSGEMM(DesignPoint{PLMBytes: 64 << 10, Lanes: 16})
	m := &Model{Acc: acc, Mode: ModeClosedForm, SystemMHz: 2000, MaxMemGBs: 24}
	solo, err := m.Invoke(sgemmParams(128), 0)
	if err != nil {
		t.Fatal(err)
	}
	crowded, err := m.Invoke(sgemmParams(128), 7)
	if err != nil {
		t.Fatal(err)
	}
	if crowded.Cycles <= solo.Cycles {
		t.Errorf("8-way concurrent invocation (%d) should be slower than solo (%d)", crowded.Cycles, solo.Cycles)
	}
	if solo.EnergyPJ <= 0 || solo.Bytes <= 0 {
		t.Errorf("missing energy/bytes: %+v", solo)
	}
	// System-clock scaling: 2 GHz system counts 2x the 1 GHz accelerator cycles.
	raw, _ := acc.ClosedForm(sgemmParams(128))
	if solo.Cycles != raw*2 {
		t.Errorf("clock scaling wrong: sys=%d acc=%d", solo.Cycles, raw)
	}
}

func TestParamValidation(t *testing.T) {
	acc := NewSGEMM(PLMSweep()[0])
	if _, err := acc.SimulatePipeline([]int64{1, 2}); err == nil {
		t.Error("short parameter list accepted")
	}
}

func TestFunctionalSGEMM(t *testing.T) {
	mem := interp.NewMemory(1 << 20)
	a := mem.AllocF32([]float32{1, 2, 3, 4}) // 2x2
	b := mem.AllocF32([]float32{5, 6, 7, 8}) // 2x2
	c := mem.Alloc(16, 64)
	SGEMMFunc(mem, []int64{int64(a), int64(b), int64(c), 2, 2, 2})
	want := []float32{19, 22, 43, 50}
	for i, w := range want {
		if got := mem.ReadF32(c + uint64(i)*4); got != w {
			t.Errorf("C[%d] = %g, want %g", i, got, w)
		}
	}
}

func TestFunctionalHistogramSaturates(t *testing.T) {
	mem := interp.NewMemory(1 << 22)
	vals := make([]int32, 1000)
	for i := range vals {
		vals[i] = 3 // all in one bin; must saturate at 255
	}
	vals[0] = -5   // clamps to bin 0
	vals[1] = 9999 // clamps to last bin
	in := mem.AllocI32(vals)
	hist := mem.AllocI32(make([]int32, 16))
	HistogramFunc(mem, []int64{int64(in), int64(len(vals)), int64(hist), 16})
	if got := mem.ReadI32(hist + 3*4); got != 255 {
		t.Errorf("bin 3 = %d, want saturation at 255", got)
	}
	if got := mem.ReadI32(hist); got != 1 {
		t.Errorf("bin 0 = %d, want 1 (clamped negative)", got)
	}
	if got := mem.ReadI32(hist + 15*4); got != 1 {
		t.Errorf("bin 15 = %d, want 1 (clamped overflow)", got)
	}
}

func TestFunctionalElementwise(t *testing.T) {
	mem := interp.NewMemory(1 << 20)
	a := mem.AllocF32([]float32{1, 2, 3})
	b := mem.AllocF32([]float32{10, 20, 30})
	c := mem.Alloc(12, 64)
	ElementwiseFunc(mem, []int64{int64(a), int64(b), int64(c), 3})
	for i, w := range []float32{11, 22, 33} {
		if got := mem.ReadF32(c + uint64(i)*4); got != w {
			t.Errorf("C[%d] = %g, want %g", i, got, w)
		}
	}
}

// TestPipelineMonotoneInWorkload is a property: more work never takes fewer
// cycles.
func TestPipelineMonotoneInWorkload(t *testing.T) {
	acc := NewElementwise(DesignPoint{PLMBytes: 16 << 10, Lanes: 16})
	f := func(n1, n2 uint32) bool {
		a := int64(n1%1_000_000) + 1
		b := int64(n2%1_000_000) + 1
		if a > b {
			a, b = b, a
		}
		ca, err1 := acc.SimulatePipeline([]int64{0, 0, 0, a})
		cb, err2 := acc.SimulatePipeline([]int64{0, 0, 0, b})
		return err1 == nil && err2 == nil && ca <= cb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := FuncRegistry()
	for _, name := range []string{"acc_sgemm", "acc_histo", "acc_elementwise"} {
		if reg[name] == nil {
			t.Errorf("functional registry missing %s", name)
		}
		if ByName(name, PLMSweep()[0]) == nil {
			t.Errorf("ByName missing %s", name)
		}
	}
	if ByName("acc_nope", PLMSweep()[0]) != nil {
		t.Error("ByName invented an accelerator")
	}
}
