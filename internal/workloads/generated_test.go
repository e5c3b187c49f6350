package workloads

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"mosaicsim/internal/cc"
	"mosaicsim/internal/config"
	"mosaicsim/internal/dae"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/testgen"
)

// TestGeneratedSystems runs generated kernels on generated systems:
// testgen.Source(s) at O0 on testgen.Topology(s), the access/execute draws
// through dae.Slice, and holds each run to what every system must satisfy.
// No lock pins these systems, so what they check is relations, not numbers.
func TestGeneratedSystems(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			topo, err := soc.Resolve(testgen.Topology(seed), false)
			if err != nil {
				t.Fatal(err)
			}
			mod, err := cc.Compile(testgen.Source(seed), "testgen")
			if err != nil {
				t.Fatal(err)
			}
			f := mod.Func("kernel")
			b := soc.Binding{Graph: ddg.Build(f)}
			byRole := map[string]*ir.Function{"": f}
			if topo.Tiles[0].Role != "" {
				sl, err := dae.Slice(f)
				if err != nil {
					t.Fatal(err)
				}
				byRole[config.RoleAccess], byRole[config.RoleExecute] = sl.Access, sl.Execute
				b.Access, b.Execute = ddg.Build(sl.Access), ddg.Build(sl.Execute)
			}
			fns := make([]*ir.Function, len(topo.Tiles))
			for i, rt := range topo.Tiles {
				fns[i] = byRole[rt.Role]
			}
			if _, b.Trace, err = testgen.RunTiles(fns); err != nil {
				t.Fatal(err)
			}

			var runs [2]soc.Result
			for i, noskip := range []bool{false, true} {
				sys, err := soc.Build(topo, b, nil)
				if err != nil {
					t.Fatal(err)
				}
				sys.DisableCycleSkipping = noskip
				// The longest draw runs 1.5 M cycles: a run past 2^24 is a
				// defect, failed here rather than run to the default limit.
				if err := sys.Run(context.Background(), 1<<24); err != nil {
					t.Fatal(err)
				}
				runs[i] = sys.Result()
			}
			skip, _ := json.Marshal(runs[0])
			if noskip, _ := json.Marshal(runs[1]); !bytes.Equal(skip, noskip) {
				t.Errorf("skipping changes the Result:\n  on %s\n off %s", skip, noskip)
			}

			res := runs[0]
			if res.Instrs != b.Trace.TotalDynInstrs() {
				t.Errorf("retired %d instructions, the trace holds %d", res.Instrs, b.Trace.TotalDynInstrs())
			}
			for i, cs := range res.CoreStats {
				cfg := topo.Tiles[i].Cfg
				if cs.Instrs != b.Trace.Tiles[i].DynInstrs {
					t.Errorf("tile %d retired %d instructions, its trace holds %d", i, cs.Instrs, b.Trace.Tiles[i].DynInstrs)
				}
				if stalls := cs.MAOStalls + cs.FUStalls + cs.WindowStalls + cs.CommStalls; stalls > cs.Cycles {
					t.Errorf("tile %d stalled %d cycles of %d", i, stalls, cs.Cycles)
				}
				if w := int64(cfg.IssueWidth); cs.Cycles < (cs.Instrs+w-1)/w {
					t.Errorf("tile %d retired %d instructions in %d cycles at issue width %d", i, cs.Instrs, cs.Cycles, w)
				}
				if cfg.Branch == config.BranchPerfect && cs.Mispredict != 0 {
					t.Errorf("tile %d mispredicted %d branches under perfect prediction", i, cs.Mispredict)
				}
			}
		})
	}
}
