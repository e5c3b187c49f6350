package experiments

import (
	"context"
	"fmt"

	"mosaicsim/internal/config"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/stats"
	"mosaicsim/internal/workloads"
)

// FigOpt sweeps the compiler optimization level against system topology:
// the same kernel at O0 and O2 on a single OoO core, four OoO cores, and
// four in-order cores. The software axis (what the pass pipeline does to
// the dynamic instruction stream) and the hardware axis (how much ILP/TLP
// the system can exploit) interact — an optimization that shrinks the
// dynamic trace helps a little core more than a big one — and this figure
// makes that interaction a first-class sweep output.
func (r *Runner) FigOpt(ctx context.Context) (*Report, error) {
	w := workloads.ByName("sgemm")
	if w == nil {
		return nil, fmt.Errorf("no workload sgemm")
	}
	levels := []string{"O0", "O2"}
	type topo struct {
		name  string
		core  config.CoreConfig
		count int
	}
	topos := []topo{
		{"1xooo", config.OutOfOrderCore(), 1},
		{"4xooo", config.OutOfOrderCore(), 4},
		{"4xinorder", config.InOrderCore(), 4},
	}
	mem := config.TableIIMem()

	fns := make([]func(context.Context) (int64, error), 0, len(levels)*len(topos))
	for _, lv := range levels {
		opt, err := ir.ParseOptConfig(lv, "", 0)
		if err != nil {
			return nil, err
		}
		ow := w.WithOpt(opt)
		for _, tp := range topos {
			tp := tp
			fns = append(fns, func(ctx context.Context) (int64, error) {
				return r.cyclesOn(ctx, ow, tp.core, tp.count, mem, nil)
			})
		}
	}
	cycles, err := r.legs(ctx, fns)
	if err != nil {
		return nil, err
	}

	tbl := stats.NewTable("Opt-level × topology — sgemm cycles",
		"opt", "1xooo", "4xooo", "4xinorder")
	values := map[string]float64{}
	for i, lv := range levels {
		row := make([]any, 0, 1+len(topos))
		row = append(row, lv)
		for j, tp := range topos {
			c := cycles[i*len(topos)+j]
			values[fmt.Sprintf("%s_%s", lv, tp.name)] = float64(c)
			row = append(row, c)
		}
		tbl.Row(row...)
	}
	return &Report{
		ID:     "figopt",
		Title:  "opt-level x topology sweep",
		Table:  tbl,
		Values: values,
		Notes:  "cycles per (opt level, system); lower is better within a column",
	}, nil
}
