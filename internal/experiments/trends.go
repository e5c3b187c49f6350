package experiments

// Figure 1 of the paper: 42 years of microprocessor trend data (transistor
// counts, single-thread performance, frequency, typical power, and logical
// core counts), recreated from the well-known Rupp dataset the paper cites
// [7]. The embedded series are five-year-sampled representative values; the
// figure's message — frequency and single-thread performance plateau while
// core counts climb — is in the shape, not individual chips.

// trendPoint is one sampled year of the trend data.
type trendPoint struct {
	Year         int
	TransistorsK float64 // thousands of transistors
	SingleThread float64 // SpecINT x 1000
	FrequencyMHz float64
	PowerW       float64
	Cores        float64 // logical cores
}

// trendData returns the embedded trend series ordered by year.
func trendData() []trendPoint {
	return []trendPoint{
		{1971, 2.3, 0, 0.74, 0.5, 1},
		{1975, 5, 0, 2, 1, 1},
		{1979, 30, 0, 5, 1.5, 1},
		{1983, 120, 0, 10, 2.5, 1},
		{1987, 300, 0.3, 20, 4, 1},
		{1991, 1200, 1.5, 50, 8, 1},
		{1995, 5500, 10, 150, 14, 1},
		{1999, 22000, 60, 500, 25, 1},
		{2003, 100000, 400, 2500, 70, 1},
		{2007, 500000, 1500, 3000, 100, 2},
		{2011, 2000000, 3500, 3300, 110, 8},
		{2015, 5000000, 5500, 3500, 120, 24},
		{2017, 10000000, 7000, 3600, 130, 56},
	}
}
