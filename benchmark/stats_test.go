package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	// p90 has a tenth of the samples beyond it: 99 samples leave 9, 100
	// leave 10.
	if _, err := percentile(seq(99), 90); err == nil {
		t.Error("p90 of 99 samples was reported; only 9 samples lie beyond it")
	}
	v, err := percentile(seq(100), 90)
	if err != nil {
		t.Fatalf("p90 of 100 samples refused: %v", err)
	}
	if math.Abs(v-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", v)
	}
	// The rule is symmetric: a low percentile needs its samples below it.
	if _, err := percentile(seq(99), 10); err == nil {
		t.Error("p10 of 99 samples was reported; only 9 samples lie below it")
	}
	if _, err := percentile(seq(1000), 99); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
	if _, err := percentile(seq(999), 99); err == nil {
		t.Error("p99 of 999 samples was reported; only 9 samples lie beyond it")
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("median of no samples was reported")
	}
}

func TestMedianAndSummary(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3,1,2 = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4,1,3,2 = %v, want 2.5", got)
	}
	s := summarize([]float64{5, 1, 9})
	if s.N != 3 || s.Min != 1 || s.Max != 9 || s.Median != 5 {
		t.Errorf("summarize(5,1,9) = %+v", s)
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("summarize(nil) = %+v", s)
	}
}

// The spread must be the one Python computes, because that is what the
// acceptance rule is written in:
//
//	>>> q = statistics.quantiles([10,12,11,15,9,14,13,10.5,11.5,12.5], n=4)
//	>>> (q[2]-q[0]) / statistics.median(...)
func TestIQRSpreadMatchesPython(t *testing.T) {
	xs := []float64{10, 12, 11, 15, 9, 14, 13, 10.5, 11.5, 12.5}
	// Sorted: 9 10 10.5 11 11.5 12 12.5 13 14 15. Exclusive quartiles of ten
	// values sit at positions 2.75, 5.5 and 8.25: 10.375, 11.75, 13.25.
	want := (13.25 - 10.375) / 11.75
	if got := iqrSpread(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrSpread = %v, want %v", got, want)
	}
	// Three values: quartiles at positions 1, 2, 3 are the values themselves.
	if got, want := iqrSpread([]float64{2, 4, 8}), (8.0-2.0)/4.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrSpread(2,4,8) = %v, want %v", got, want)
	}
	// Two values: Python extrapolates past the ends (quartiles 0.75, 1.5,
	// 2.25 for 1 and 2).
	if got, want := iqrSpread([]float64{1, 2}), (2.25-0.75)/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrSpread(1,2) = %v, want %v", got, want)
	}
	if got := iqrSpread([]float64{7}); got != 0 {
		t.Errorf("iqrSpread of one value = %v, want 0", got)
	}
}
