package keras

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSecondsAndEnergy(t *testing.T) {
	s := energySummary{Cycles: 2_000_000, ClockMHz: 2000, DynamicPJ: 1e9, AreaMM2: 1}
	if got := s.Seconds(); got != 1e-3 {
		t.Errorf("Seconds = %g, want 1e-3", got)
	}
	wantE := 1e9*1e-12 + leakageWPerMM2*1*1e-3
	if got := s.EnergyJ(); math.Abs(got-wantE) > 1e-12 {
		t.Errorf("EnergyJ = %g, want %g", got, wantE)
	}
	if got := s.EDP(); math.Abs(got-wantE*1e-3) > 1e-15 {
		t.Errorf("EDP = %g", got)
	}
}

func TestZeroClock(t *testing.T) {
	s := energySummary{Cycles: 100, DynamicPJ: 5}
	if s.Seconds() != 0 {
		t.Error("zero clock should yield zero time")
	}
}

func TestImprovement(t *testing.T) {
	base := energySummary{Cycles: 8_000_000, ClockMHz: 2000, DynamicPJ: 8e9, AreaMM2: 8.44}
	opt := energySummary{Cycles: 1_000_000, ClockMHz: 2000, DynamicPJ: 1e9, AreaMM2: 8.44}
	imp := improvement(base, opt)
	if imp <= 1 {
		t.Errorf("faster+cheaper run must improve EDP, got %.2f", imp)
	}
	if improvement(base, energySummary{}) != 0 {
		t.Error("zero-EDP opt should report 0")
	}
}

// Property: halving both time and energy improves EDP by ~4x (quadratic in
// delay, linear in energy => here both shrink).
func TestImprovementScaling(t *testing.T) {
	f := func(cyc uint32, pj uint32) bool {
		c := int64(cyc%1_000_000) + 1000
		e := float64(pj%1_000_000) + 1000
		base := energySummary{Cycles: 2 * c, ClockMHz: 1000, DynamicPJ: 2 * e}
		opt := energySummary{Cycles: c, ClockMHz: 1000, DynamicPJ: e}
		imp := improvement(base, opt)
		return imp > 3.9 && imp < 4.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
