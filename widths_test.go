package mosaicsim

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/bits"
	"path/filepath"
	"strings"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/workloads"
)

// TestWidthsHoldTheirBounds lists every integer of 32 bits or fewer that
// core, mem, soc and trace store (a field, its element or type argument, or a
// named type), and the 64-bit ones whose range is not their type's, beside
// the bound that keeps it in range: a config.Validate limit, the trace
// decoder's, or a shipped kernel's size. A narrow width without a row fails.
func TestWidthsHoldTheirBounds(t *testing.T) {
	maxInstrs, maxArgs, maxMem := 0, 0, 0 // over the shipped kernels
	for _, w := range workloads.All() {
		f, err := w.Kernel()
		if err != nil {
			t.Fatal(err)
		}
		maxInstrs = max(maxInstrs, f.NumInstrs())
		for _, in := range f.Instrs() {
			maxArgs = max(maxArgs, len(in.Args))
		}
		// Memory instructions at O2 too, unrolled as far as a spec may ask.
		o2, err := w.WithOpt(ir.OptConfig{Level: "O2", Unroll: ir.MaxUnroll}).Kernel()
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []*ir.Function{f, o2} {
			mems := 0
			for _, in := range f.Instrs() {
				if in.IsMemory() {
					mems++
				}
			}
			maxMem = max(maxMem, mems)
		}
	}
	ring := int64(1) << bits.Len(uint(config.MaxEntries+maxInstrs))
	edges, kernel, tiles := ring*int64(maxArgs+1), int64(maxInstrs), int64(config.MaxTiles)
	const i32, u8, i64 = math.MaxInt32, math.MaxUint8, math.MaxInt64
	rows := map[string]struct{ max, bound int64 }{
		// Enumerations; access sizes, at most the widest IR type's 8 bytes.
		"core.nodeState": {u8, 3}, "core.OpKind": {u8, 5}, "mem.Kind": {u8, 4}, "core.stallCause": {u8, 5},
		"core.StaticNode.MemSize": {u8, 8}, "core.dynNode.memSize": {i32, 8},
		// Static indices and positions in a block: below the kernel's
		// instruction count.
		"core.StaticNode.Idx": {i32, kernel}, "core.StaticNode.Cross": {i32, kernel}, "core.StaticNode.Phi": {i32, kernel},
		"core.StaticNode.Intra": {i32, kernel}, "core.StaticNode.Wake": {i32, kernel}, "core.StaticNode.Fused": {i32, kernel + 1},
		// A kernel's memory instructions, numbered densely (Lower panics on a
		// kernel with more than the field holds).
		"core.StaticNode.MemSlot": {math.MaxUint16, int64(maxMem)},
		// A node's producers (operands and a phi edge), a slot of the ring that
		// holds the window (MaxEntries) and a block, and its edge pool indices.
		"core.dynNode.parentsLeft": {i32, int64(maxArgs + 1)}, "core.edge.dep": {i32, ring},
		"core.dynNode.depHead": {i32, edges}, "core.edge.next": {i32, edges}, "core.Core.edgeFree": {i32, edges},
		// Tile IDs (MaxTiles); Check refuses a partner outside [0, tiles).
		"trace.TileTrace.Tile": {i32, tiles}, "core.dynNode.partner": {i32, tiles},
		// A stream's encoded bytes: any byte. Its values are uint64, and Read
		// refuses a partner past int32.
		"trace.chunks.cur": {u8, u8}, "trace.Cursor.rest": {u8, u8}, "trace.Walk.b": {u8, u8},
		// Block IDs, below the kernel's instruction count. A walk's place in a
		// path: a chunk holds at most 64 KiB, and past the first eight every
		// chunk is that size, in an address space of 2^47 bytes.
		"trace.CFG": {i32, kernel}, "trace.Walk.next": {i32, kernel},
		"trace.Walk.off": {i32, 64 << 10}, "trace.Walk.ci": {math.MaxUint32, 1<<47/(64<<10) + 8},
		// gshare's 12 history bits and 2-bit counters; one sharer bit per tile.
		"core.Core.bpHistory": {math.MaxUint16, 1<<12 - 1}, "core.Core.bpCounters": {u8, 3},
		"mem.dirEntry.sharers": {64, config.MaxDirectoryTiles},
		// One seq per dynamic instruction, a count Read bounds to int64.
		"core.dynNode.seq": {i64, i64}, "trace.TileTrace.DynInstrs": {i64, i64},
		// A line's last use, a cycle of the run (Run ticks up to one past its
		// limit), shifted past the three flag bits.
		"mem.cacheLine.word": {1<<61 - 1, soc.MaxCycleLimit + 1},
	}
	found := map[string]bool{} // every named type and struct field of the four packages
	check := func(key string, ty ast.Expr) {
		found[key] = true
		switch e := ty.(type) {
		case *ast.ArrayType:
			ty = e.Elt
		}
		id, ok := ty.(*ast.Ident)
		if _, listed := rows[key]; ok && !listed && strings.Contains(" int8 int16 int32 uint8 byte uint16 uint32 ", " "+id.Name+" ") {
			t.Errorf("%s is a %s with no row: add it beside the bound that keeps it in range", key, id.Name)
		}
	}
	for _, pkg := range []string{"core", "mem", "soc", "trace"} {
		files, _ := filepath.Glob(filepath.Join("internal", pkg, "*.go"))
		for _, path := range files {
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
			if err != nil || strings.HasSuffix(path, "_test.go") { // the build has parsed every file
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok {
					check(pkg+"."+ts.Name.Name, ts.Type)
					if st, ok := ts.Type.(*ast.StructType); ok {
						for _, fld := range st.Fields.List {
							for _, name := range fld.Names {
								check(pkg+"."+ts.Name.Name+"."+name.Name, fld.Type)
							}
						}
					}
				}
				return true
			})
		}
	}
	for key, r := range rows {
		if !found[key] || r.bound > r.max {
			t.Errorf("row %s: found %t; its width holds %d, its bound lets it reach %d", key, found[key], r.max, r.bound)
		}
	}
}
