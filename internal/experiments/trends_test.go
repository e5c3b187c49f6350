package experiments

import "testing"

func TestDataOrderedAndComplete(t *testing.T) {
	pts := trendData()
	if len(pts) < 10 {
		t.Fatalf("only %d samples", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Year <= pts[i-1].Year {
			t.Error("years not strictly increasing")
		}
		if pts[i].TransistorsK < pts[i-1].TransistorsK {
			t.Error("transistor counts must be non-decreasing (Moore's law era)")
		}
	}
	if pts[0].Year != 1971 || pts[len(pts)-1].Year < 2015 {
		t.Errorf("span %d-%d does not cover the 42-year figure", pts[0].Year, pts[len(pts)-1].Year)
	}
}

func TestFigureOneShape(t *testing.T) {
	// Frequency plateaus after ~2003 while core counts climb — the figure's
	// motivation for heterogeneous parallelism.
	if !plateaued(func(p trendPoint) float64 { return p.FrequencyMHz }, 2003, 2017, 2) {
		t.Error("frequency did not plateau post-2003")
	}
	if plateaued(func(p trendPoint) float64 { return p.Cores }, 2007, 2017, 2) {
		t.Error("core counts should keep climbing post-2007")
	}
	if plateaued(func(p trendPoint) float64 { return p.TransistorsK }, 2003, 2017, 10) {
		t.Error("transistor counts should keep growing")
	}
	if !plateaued(func(p trendPoint) float64 { return p.PowerW }, 2007, 2017, 2) {
		t.Error("typical power should flatten (Dennard scaling end)")
	}
}

func TestPlateauedMissingYear(t *testing.T) {
	if plateaued(func(p trendPoint) float64 { return p.PowerW }, 1900, 2017, 2) {
		t.Error("missing baseline year should report false")
	}
}

// plateaued reports whether a series has effectively flattened between two
// years: less than the given growth ratio.
func plateaued(get func(trendPoint) float64, fromYear, toYear int, maxRatio float64) bool {
	var from, to float64
	for _, p := range trendData() {
		if p.Year == fromYear {
			from = get(p)
		}
		if p.Year == toYear {
			to = get(p)
		}
	}
	if from == 0 {
		return false
	}
	return to/from < maxRatio
}
