package keras

// Energy and energy-delay product (EDP), the metric of the paper's TensorFlow
// case study (§VII-C): per-instruction dynamic energy (§III-B), memory-system
// access energy and accelerator power, plus area-proportional static leakage.

// energySummary captures what the EDP computation needs from a run.
type energySummary struct {
	Cycles    int64
	ClockMHz  int
	DynamicPJ float64 // accumulated dynamic energy
	AreaMM2   float64 // active silicon, for leakage
}

// leakageWPerMM2 is the static power density applied to active area.
const leakageWPerMM2 = 0.08

// Seconds returns wall-clock time of the run.
func (s energySummary) Seconds() float64 {
	if s.ClockMHz <= 0 {
		return 0
	}
	return float64(s.Cycles) / (float64(s.ClockMHz) * 1e6)
}

// EnergyJ returns total energy in joules: dynamic plus leakage over time.
func (s energySummary) EnergyJ() float64 {
	return s.DynamicPJ*1e-12 + leakageWPerMM2*s.AreaMM2*s.Seconds()
}

// EDP returns the energy-delay product in joule-seconds.
func (s energySummary) EDP() float64 { return s.EnergyJ() * s.Seconds() }

// improvement returns how much better (×) opt is than base in EDP;
// >1 means opt wins.
func improvement(base, opt energySummary) float64 {
	o := opt.EDP()
	if o == 0 {
		return 0
	}
	return base.EDP() / o
}
