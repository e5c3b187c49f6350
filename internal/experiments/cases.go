package experiments

import (
	"context"
	"fmt"

	"mosaicsim/internal/accel"
	"mosaicsim/internal/config"
	"mosaicsim/internal/keras"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/stats"
	"mosaicsim/internal/workloads"
)

// Fig1 renders the microprocessor-trend series the paper opens with.
func Fig1() *Report {
	tbl := stats.NewTable("Fig. 1 — 42 years of microprocessor trend data",
		"year", "transistors (k)", "single-thread perf", "frequency (MHz)", "power (W)", "cores")
	values := map[string]float64{}
	for _, p := range trendData() {
		tbl.Row(p.Year, p.TransistorsK, p.SingleThread, p.FrequencyMHz, p.PowerW, p.Cores)
		values[fmt.Sprintf("cores%d", p.Year)] = p.Cores
		values[fmt.Sprintf("freq%d", p.Year)] = p.FrequencyMHz
	}
	return &Report{ID: "fig1", Title: "Microprocessor trends", Table: tbl, Values: values,
		Notes: "recreated from the Rupp dataset the paper cites [7]"}
}

// Tab1 renders the Table I evaluation-system configuration.
func Tab1() *Report {
	sc := config.XeonSystem(16)
	tbl := stats.NewTable("Table I — evaluation system (Intel Xeon E5-2667 v3 substitute)", "parameter", "value")
	tbl.Row("Sockets, Cores", "2 sockets, 8 cores each (16 simulated tiles)")
	tbl.Row("Node Technology and Frequency", fmt.Sprintf("22nm, %d MHz", sc.Tiles[0].Core.ClockMHz))
	tbl.Row("L1-D", fmt.Sprintf("%dKB private / %d-way", sc.Mem.L1.SizeKB, sc.Mem.L1.Assoc))
	tbl.Row("L2", fmt.Sprintf("%dMB private / %d-way", sc.Mem.L2.SizeKB/1024, sc.Mem.L2.Assoc))
	tbl.Row("LLC", fmt.Sprintf("%dMB shared / %d-way", sc.Mem.LLC.SizeKB/1024, sc.Mem.LLC.Assoc))
	tbl.Row("DRAM", fmt.Sprintf("%.0f GB/s, %d-cycle minimum latency", sc.Mem.DRAM.BandwidthGBs, sc.Mem.DRAM.MinLatency))
	return &Report{ID: "tab1", Title: "Evaluation system", Table: tbl,
		Values: map[string]float64{
			"l1_kb": float64(sc.Mem.L1.SizeKB), "llc_kb": float64(sc.Mem.LLC.SizeKB),
			"dram_gbs": sc.Mem.DRAM.BandwidthGBs, "clock_mhz": float64(sc.Tiles[0].Core.ClockMHz),
		}}
}

// Tab2 renders the Table II DAE case-study parameters.
func Tab2() *Report {
	ooo, ino := config.OutOfOrderCore(), config.InOrderCore()
	mem := config.TableIIMem()
	tbl := stats.NewTable("Table II — DAE case-study parameters", "parameter", "out-of-order", "in-order")
	tbl.Row("Issue Width", ooo.IssueWidth, ino.IssueWidth)
	tbl.Row("Instruction Window/RoB/LSQ", fmt.Sprintf("%d/%d", ooo.WindowSize, ooo.LSQSize), fmt.Sprintf("%d/%d", ino.WindowSize, ino.LSQSize))
	tbl.Row("Frequency", fmt.Sprintf("%d MHz", ooo.ClockMHz), fmt.Sprintf("%d MHz", ino.ClockMHz))
	tbl.Row("Area (mm^2)", ooo.AreaMM2, ino.AreaMM2)
	tbl.Row("L1", fmt.Sprintf("%dKB / %d-way / %d-cycle", mem.L1.SizeKB, mem.L1.Assoc, mem.L1.LatencyCycles), "")
	tbl.Row("L2", fmt.Sprintf("%dMB / %d-way / %d-cycle", mem.L2.SizeKB/1024, mem.L2.Assoc, mem.L2.LatencyCycles), "")
	tbl.Row("DRAM", fmt.Sprintf("%.0f GB/s, %d-cycle latency", mem.DRAM.BandwidthGBs, mem.DRAM.MinLatency), "")
	tbl.Row("Comm. Buffer Sizes", fmt.Sprintf("%d entries / 1-cycle latency", ooo.MaxMessages), "")
	return &Report{ID: "tab2", Title: "DAE parameters", Table: tbl,
		Values: map[string]float64{"ooo_area": ooo.AreaMM2, "ino_area": ino.AreaMM2}}
}

// Fig10 reproduces the accelerator design-space exploration: execution time
// and area per PLM design point and workload size for the three §VI-A
// accelerators, plus the generic model's accuracy against RTL-level pipeline
// simulation and FPGA emulation (Fig. 10d).
func Fig10() *Report {
	tbl := stats.NewTable("Fig. 10 — accelerator DSE (execution time in Mcycles; area in um^2)",
		"accelerator", "PLM", "area", "wl=256KB", "wl=1MB", "wl=4MB", "wl=16MB")
	values := map[string]float64{}
	names := []string{"acc_sgemm", "acc_histo", "acc_elementwise"}
	for _, name := range names {
		for _, dp := range accel.PLMSweep() {
			a := accel.ByName(name, dp)
			row := []any{name, fmt.Sprintf("%dKB", dp.PLMBytes/1024), a.AreaUM2()}
			for _, wl := range accel.WorkloadSweep() {
				cycles, err := a.SimulatePipeline(paramsForWorkload(name, wl))
				if err != nil {
					row = append(row, "-")
					continue
				}
				m := float64(cycles) / 1e6
				row = append(row, m)
				values[fmt.Sprintf("%s/plm%d/wl%d", name, dp.PLMBytes, wl)] = m
			}
			tbl.Row(row...)
		}
	}
	// Fig. 10d: accuracy of the generic model vs RTL simulation and FPGA.
	acc := stats.NewTable("Fig. 10d — generic-model execution-time accuracy",
		"accelerator", "vs RTL simulation", "vs FPGA emulation", "paper RTL", "paper FPGA")
	paperRTL := map[string]float64{"acc_sgemm": 0.99, "acc_histo": 0.99, "acc_elementwise": 0.97}
	paperFPGA := map[string]float64{"acc_sgemm": 0.90, "acc_histo": 0.93, "acc_elementwise": 0.89}
	for _, name := range names {
		var rtlAcc, fpgaAcc []float64
		for _, dp := range accel.PLMSweep() {
			a := accel.ByName(name, dp)
			for _, wl := range accel.WorkloadSweep() {
				params := paramsForWorkload(name, wl)
				cf, err1 := a.ClosedForm(params)
				pipe, err2 := a.SimulatePipeline(params)
				fpga, err3 := a.EmulateFPGA(params)
				if err1 != nil || err2 != nil || err3 != nil {
					continue
				}
				rtlAcc = append(rtlAcc, ratioAccuracy(cf, pipe))
				fpgaAcc = append(fpgaAcc, ratioAccuracy(cf, fpga))
			}
		}
		mr, mf := stats.Mean(rtlAcc), stats.Mean(fpgaAcc)
		values[name+"/rtl"] = mr
		values[name+"/fpga"] = mf
		acc.Row(name, mr, mf, paperRTL[name], paperFPGA[name])
	}
	return &Report{ID: "fig10", Title: "Accelerator DSE", Table: tbl, Values: values,
		Notes: "accuracy sub-table:\n" + acc.String()}
}

// ratioAccuracy expresses |model/reference| as an accuracy in (0,1].
func ratioAccuracy(model, reference int64) float64 {
	if reference == 0 {
		return 0
	}
	r := float64(model) / float64(reference)
	if r > 1 {
		return 1 / r
	}
	return r
}

func paramsForWorkload(name string, totalBytes int64) []int64 {
	switch name {
	case "acc_sgemm":
		d := int64(1)
		for d*d*12 < totalBytes {
			d++
		}
		return []int64{0, 0, 0, d, d, d}
	case "acc_histo":
		return []int64{0, totalBytes / 4, 0, 256}
	default:
		return []int64{0, 0, 0, totalBytes / 12}
	}
}

// Fig11 reproduces the DAE case study on bipartite graph projection: single
// cores, homogeneous parallel scaling, and DAE pairs at OoO-area-equivalence
// (8 in-order cores = 4 DAE pairs ≈ 1 OoO core by Table II areas).
func (r *Runner) Fig11(ctx context.Context) (*Report, error) {
	w := workloads.Projection()
	mem := config.TableIIMem()
	ino, ooo := config.InOrderCore(), config.OutOfOrderCore()

	c, err := r.legs(ctx, []func(context.Context) (int64, error){
		func(ctx context.Context) (int64, error) { return r.cyclesOn(ctx, w, ino, 1, mem, nil) },
		func(ctx context.Context) (int64, error) { return r.cyclesOn(ctx, w, ooo, 1, mem, nil) },
		func(ctx context.Context) (int64, error) { return r.cyclesOn(ctx, w, ino, 2, mem, nil) },
		func(ctx context.Context) (int64, error) { return r.daeCycles(ctx, w, 1, mem, nil) },
		func(ctx context.Context) (int64, error) { return r.cyclesOn(ctx, w, ino, 8, mem, nil) },
		func(ctx context.Context) (int64, error) { return r.daeCycles(ctx, w, 4, mem, nil) },
	})
	if err != nil {
		return nil, err
	}
	base, oooC, homo2, dae1, homo8, dae4 := c[0], c[1], c[2], c[3], c[4], c[5]

	sp := func(c int64) float64 { return float64(base) / float64(c) }
	tbl := stats.NewTable("Fig. 11 — graph projection speedups (vs 1 in-order core)",
		"system", "speedup", "paper (approx)")
	rows := []struct {
		name   string
		cycles int64
		paper  float64
	}{
		{"1 InO (baseline)", base, 1},
		{"1 OoO", oooC, 3.2},
		{"2 InO (homogeneous)", homo2, 1.9},
		{"1 DAE pair (2 InO)", dae1, 2.4},
		{"8 InO (OoO-area-equiv homogeneous)", homo8, 5.3},
		{"4 DAE pairs (OoO-area-equiv heterogeneous)", dae4, 6.3},
	}
	values := map[string]float64{}
	for _, row := range rows {
		s := sp(row.cycles)
		values[row.name] = s
		tbl.Row(row.name, s, row.paper)
	}
	return &Report{ID: "fig11", Title: "DAE for latency tolerance", Table: tbl, Values: values,
		Notes: "equal-area comparison: 8 InO cores (8.08 mm^2) vs 1 OoO core (8.44 mm^2)"}, nil
}

// Fig12 reproduces the sparse/dense microbenchmark study: EWSD and SGEMM
// across in-order scaling, an OoO core, DAE pairs, and (for SGEMM) the
// fixed-function accelerator.
func (r *Runner) Fig12(ctx context.Context) (*Report, error) {
	mem := config.TableIIMem()
	ino, ooo := config.InOrderCore(), config.OutOfOrderCore()
	accels := workloads.DefaultAccelModels(ino.ClockMHz)

	type sysResult map[string]float64
	// Every measurement across both workloads is an independent leg; the
	// sweep engine fans them all out at once and results are assembled by
	// index. The SGEMM 1-InO leg doubles as the accelerator bar's baseline.
	mkLegs := func(w *workloads.Workload) []func(context.Context) (int64, error) {
		return []func(context.Context) (int64, error){
			func(ctx context.Context) (int64, error) { return r.cyclesOn(ctx, w, ino, 1, mem, accels) },
			func(ctx context.Context) (int64, error) { return r.cyclesOn(ctx, w, ino, 4, mem, accels) },
			func(ctx context.Context) (int64, error) { return r.cyclesOn(ctx, w, ino, 8, mem, accels) },
			func(ctx context.Context) (int64, error) { return r.cyclesOn(ctx, w, ooo, 1, mem, accels) },
			func(ctx context.Context) (int64, error) { return r.daeCycles(ctx, w, 4, mem, accels) },
		}
	}
	legNames := []string{"1 InO", "4 InO", "8 InO", "1 OoO", "4+4 InO DAE"}
	fns := append(mkLegs(workloads.EWSD()), mkLegs(workloads.SGEMM())...)
	fns = append(fns, func(ctx context.Context) (int64, error) {
		return r.cyclesOn(ctx, workloads.SGEMMAccel(), ino, 1, mem, accels)
	})
	c, err := r.legs(ctx, fns)
	if err != nil {
		return nil, err
	}
	assemble := func(c []int64) sysResult {
		out := sysResult{"1 InO": 1}
		for i := 1; i < len(legNames); i++ {
			out[legNames[i]] = float64(c[0]) / float64(c[i])
		}
		return out
	}
	ewsd := assemble(c[:5])
	sg := assemble(c[5:10])
	// Accelerator bar: SGEMM offloaded, normalized to the same 1-InO
	// software baseline.
	sg["Accel"] = float64(c[5]) / float64(c[10])

	order := []string{"1 InO", "4 InO", "8 InO", "1 OoO", "4+4 InO DAE", "Accel"}
	paperE := map[string]float64{"1 InO": 1, "4 InO": 3.3, "8 InO": 4.8, "1 OoO": 3.6, "4+4 InO DAE": 6}
	paperS := map[string]float64{"1 InO": 1, "4 InO": 3.9, "8 InO": 7.4, "1 OoO": 2.5, "4+4 InO DAE": 5.5, "Accel": 45}
	tbl := stats.NewTable("Fig. 12 — EWSD and SGEMM speedups (vs 1 in-order core)",
		"system", "EWSD", "paper EWSD", "SGEMM", "paper SGEMM")
	values := map[string]float64{}
	for _, s := range order {
		eV, eOK := ewsd[s]
		sV := sg[s]
		values["ewsd/"+s] = eV
		values["sgemm/"+s] = sV
		eCell := any("-")
		pECell := any("-")
		if eOK {
			eCell = eV
			pECell = paperE[s]
		}
		tbl.Row(s, eCell, pECell, sV, paperS[s])
	}
	return &Report{ID: "fig12", Title: "Sparse/dense microbenchmarks", Table: tbl, Values: values,
		Notes: "EWSD favors latency-tolerant DAE; SGEMM favors the accelerator (§VII-B)"}, nil
}

// Fig13 reproduces the combined sparse/dense kernel: SGEMM and EWSD run
// serially with dataset mixes chosen by their share of baseline (1 InO)
// cycles; serial-phase composition makes each architecture's combined time
// the weighted sum of its phase times.
func (r *Runner) Fig13(ctx context.Context) (*Report, error) {
	mem := config.TableIIMem()
	ino, ooo := config.InOrderCore(), config.OutOfOrderCore()
	accels := workloads.DefaultAccelModels(ino.ClockMHz)

	sgw, ew := workloads.SGEMM(), workloads.EWSD()
	// Phase measurements for both workloads plus the SGEMM accelerator
	// offload are independent legs fanned out together.
	legNames := []string{"4 InO", "8 InO", "1 OoO", "4+4 InO DAE", "base"}
	mkLegs := func(w *workloads.Workload) []func(context.Context) (int64, error) {
		return []func(context.Context) (int64, error){
			func(ctx context.Context) (int64, error) { return r.cyclesOn(ctx, w, ino, 4, mem, accels) },
			func(ctx context.Context) (int64, error) { return r.cyclesOn(ctx, w, ino, 8, mem, accels) },
			func(ctx context.Context) (int64, error) { return r.cyclesOn(ctx, w, ooo, 1, mem, accels) },
			func(ctx context.Context) (int64, error) { return r.daeCycles(ctx, w, 4, mem, accels) },
			func(ctx context.Context) (int64, error) { return r.cyclesOn(ctx, w, ino, 1, mem, accels) },
		}
	}
	fns := append(mkLegs(sgw), mkLegs(ew)...)
	fns = append(fns, func(ctx context.Context) (int64, error) {
		return r.cyclesOn(ctx, workloads.SGEMMAccel(), ino, 1, mem, accels)
	})
	c, err := r.legs(ctx, fns)
	if err != nil {
		return nil, err
	}
	assemble := func(c []int64) map[string]int64 {
		out := map[string]int64{}
		for i, n := range legNames {
			out[n] = c[i]
		}
		return out
	}
	sgT := assemble(c[:5])
	ewT := assemble(c[5:10])
	sgT["4+4 InO DAE w/Accel"] = c[10]
	ewT["4+4 InO DAE w/Accel"] = ewT["4+4 InO DAE"]

	systems := []string{"4 InO", "8 InO", "1 OoO", "4+4 InO DAE", "4+4 InO DAE w/Accel"}
	mixes := []struct {
		name  string
		dense float64 // share of baseline cycles spent in SGEMM
	}{
		{"dense-heavy (75% SGEMM)", 0.75},
		{"equal (50/50)", 0.5},
		{"sparse-heavy (25% SGEMM)", 0.25},
	}
	tbl := stats.NewTable("Fig. 13 — combined kernel speedups (vs 1 in-order core)",
		"system", mixes[0].name, mixes[1].name, mixes[2].name)
	values := map[string]float64{}
	for _, sys := range systems {
		row := []any{sys}
		for _, mix := range mixes {
			// Scale phase datasets so the baseline splits cycles per the mix;
			// with serial phases, speedup composes harmonically.
			baseTotal := 1.0
			optTotal := mix.dense*float64(sgT[sys])/float64(sgT["base"]) +
				(1-mix.dense)*float64(ewT[sys])/float64(ewT["base"])
			sp := baseTotal / optTotal
			values[sys+"/"+mix.name] = sp
			row = append(row, sp)
		}
		tbl.Row(row...)
	}
	return &Report{ID: "fig13", Title: "Alternating sparse/dense phases", Table: tbl, Values: values,
		Notes: "phases are serial, so combined speedup composes harmonically from Fig. 12's phase measurements"}, nil
}

// Fig14 reproduces the TensorFlow/Keras EDP study: out-of-order core vs an
// SoC with 8 accelerator instances for the three DNN applications.
func Fig14() *Report {
	core := keras.DefaultOoOCore()
	socp := keras.DefaultSoC(8)
	paper := map[string]float64{"ConvNet": 7.22, "GraphSage": 38, "RecSys": 282.24}
	tbl := stats.NewTable("Fig. 14 — energy-delay improvement from accelerators",
		"application", "EDP improvement", "paper")
	values := map[string]float64{}
	for _, m := range keras.Apps() {
		imp := m.EDPImprovement(core, socp, 32)
		values[m.Name] = imp
		tbl.Row(m.Name, imp, paper[m.Name])
	}
	return &Report{ID: "fig14", Title: "DNN accelerator EDP", Table: tbl, Values: values,
		Notes: "ConvNet is limited by unaccelerated conv backprop; GraphSage by host-side sampling; RecSys is fully accelerated (§VII-C)"}
}

// Ensure soc import is exercised even if future edits drop direct uses.
var _ soc.AccelModel = (*accel.Model)(nil)
