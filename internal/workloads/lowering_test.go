package workloads

import (
	"slices"
	"strings"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/core"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/href"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/soc"
)

// presetCores collects every core configuration the repo ships: the
// presets.go constructors, every tile of every named topology preset
// (overrides merged), the hardware reference core with its full latency
// override map, and a core with functional-unit caps and a partial override.
func presetCores(t *testing.T) []config.CoreConfig {
	t.Helper()
	capped := config.OutOfOrderCore()
	capped.Name = "capped"
	capped.FunctionalUnits = map[string]int{"fp_mul": 2, "int_div": 1, "mem": 4}
	capped.Latencies = map[string]int64{"fp_div": 30, "special": 2}
	cores := []config.CoreConfig{
		config.OutOfOrderCore(), config.InOrderCore(), config.XeonLikeCore(),
		config.AcceleratorTileCore(8), href.ReferenceCore(), capped,
	}
	for _, name := range config.TopologyPresets() {
		sc, err := config.TopologyPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		topo, err := soc.Resolve(sc, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, rt := range topo.Tiles {
			cores = append(cores, rt.Cfg)
		}
	}
	return cores
}

// TestResolvedTablesMatchConfig: for every built-in kernel and every shipped
// core configuration, the per-class tables core.New resolves equal what the
// string-keyed resolvers answer, class by class.
func TestResolvedTablesMatchConfig(t *testing.T) {
	cores := presetCores(t)
	for _, w := range All() {
		g, tr, err := w.Trace(1, Tiny)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		p := core.Lower(g)
		for _, cfg := range cores {
			lat, fu := core.New(0, cfg, p, tr.Tiles[0], nil, nil, nil).Tables()
			for cl := config.InstrClass(0); cl < config.NumClasses; cl++ {
				if lat[cl] != cfg.Latency(cl) || fu[cl] != cfg.FULimit(cl) {
					t.Errorf("%s on %s: class %s resolved to latency %d / FU limit %d, config says %d / %d",
						w.Name, cfg.Name, cl, lat[cl], fu[cl], cfg.Latency(cl), cfg.FULimit(cl))
				}
			}
		}
	}
}

// wantKind derives a node's op kind from the instruction alone, the way the
// per-launch path used to.
func wantKind(in *ir.Instr) core.OpKind {
	switch {
	case in.IsMemory():
		return core.KindMem
	case in.Op == ir.OpCall && in.Callee == "send":
		return core.KindSend
	case in.Op == ir.OpCall && in.Callee == "recv":
		return core.KindRecv
	case in.Op == ir.OpCall && in.Callee == "barrier":
		return core.KindBarrier
	case in.Op == ir.OpCall && strings.HasPrefix(in.Callee, "acc_") && len(in.Callee) > 4:
		return core.KindAcc
	}
	return core.KindPlain
}

// TestLoweredProgramMatchesDDG: at O0 and O2, every lowered record of every
// built-in kernel carries the class Classify computes, the kind the callee
// strings imply, and exactly the DDG node's dependences — intra edges as
// block positions, cross edges as static indices, phi cases under their
// predecessor block.
func TestLoweredProgramMatchesDDG(t *testing.T) {
	for _, level := range []string{"0", "2"} {
		opt, err := ir.ParseOptConfig(level, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range All() {
			f, err := w.WithOpt(opt).Kernel()
			if err != nil {
				t.Fatalf("%s -O%s: %v", w.Name, level, err)
			}
			g := ddg.Build(f)
			p := core.Lower(g)
			if len(p.Blocks) != len(g.Blocks) {
				t.Fatalf("%s -O%s: %d lowered blocks, DDG has %d", w.Name, level, len(p.Blocks), len(g.Blocks))
			}
			for b, bg := range g.Blocks {
				blk, nodes := p.Blocks[b], p.Nodes(b)
				first := bg.Nodes[0].Instr.Idx
				if len(nodes) != len(bg.Nodes) || blk.First != first || blk.TermPos != bg.TermPos {
					t.Fatalf("%s -O%s block %d: %d nodes from %d term %d, DDG has %d from %d term %d",
						w.Name, level, b, len(nodes), blk.First, blk.TermPos, len(bg.Nodes), first, bg.TermPos)
				}
				for pos, dn := range bg.Nodes {
					sn := nodes[pos]
					in := dn.Instr
					kind := wantKind(in)
					if sn.Instr != in || int(sn.Idx) != in.Idx || sn.Class != core.Classify(in) || sn.Kind != kind || sn.Free {
						t.Errorf("%s -O%s instr %d (%s %s): lowered as idx %d class %s kind %d free %v, want class %s kind %d",
							w.Name, level, in.Idx, in.Op, in.Callee, sn.Idx, sn.Class, sn.Kind, sn.Free, core.Classify(in), kind)
					}
					var intra, cross []int32
					for _, d := range dn.Deps {
						if d.Kind == ddg.DepIntra {
							intra = append(intra, int32(d.Instr-first))
						} else {
							cross = append(cross, int32(d.Instr))
						}
					}
					if !slices.Equal(sn.Intra, intra) || !slices.Equal(sn.Cross, cross) {
						t.Errorf("%s -O%s instr %d: intra %v cross %v, DDG says %v / %v", w.Name, level, in.Idx, sn.Intra, sn.Cross, intra, cross)
					}
					if (in.Op == ir.OpPhi) != (sn.Phi != nil) {
						t.Errorf("%s -O%s instr %d (%s): phi table present = %v", w.Name, level, in.Idx, in.Op, sn.Phi != nil)
						continue
					}
					if in.Op != ir.OpPhi {
						continue
					}
					want := make([]int32, len(g.Blocks))
					for i := range want {
						want[i] = -1
					}
					for _, pc := range dn.PhiCases {
						if pc.Dep != nil {
							want[pc.FromBlock] = int32(pc.Dep.Instr)
						}
					}
					if !slices.Equal(sn.Phi, want) {
						t.Errorf("%s -O%s phi %d: cases %v, DDG says %v", w.Name, level, in.Idx, sn.Phi, want)
					}
				}
			}
		}
	}
}
