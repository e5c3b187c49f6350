// Quickstart: the complete MosaicSim-Go pipeline on the paper's running
// example (Fig. 3): a vector-add kernel is compiled from mini-C to IR, its
// static DDG is built, the Dynamic Trace Generator executes it natively to
// collect control-flow and memory traces, and the timing simulator replays
// the traces on an out-of-order core.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"mosaicsim"
)

const src = `
// The paper's Fig. 3 example, generalized to n elements.
void kernel(double* A, double* B, double* C, long n) {
  for (long i = 0; i < n; i++) {
    C[i] = A[i] + B[i];
  }
}
`

func main() {
	// 1. Compile mini-C to the SSA IR (the LLVM-IR stand-in).
	mod, err := mosaicsim.Compile(src, "vecadd")
	if err != nil {
		log.Fatal(err)
	}
	k, err := mosaicsim.KernelOf(mod, "kernel")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== kernel IR ==")
	fmt.Println(k.Fn.String())
	s := k.Graph.Stats()
	fmt.Printf("static DDG: %d blocks, %d nodes, %d intra + %d cross data edges\n\n",
		s.Blocks, s.Nodes, s.IntraEdges, s.CrossEdges)

	// 2. Set up simulated memory and run the Dynamic Trace Generator.
	const n = 1024
	mem := mosaicsim.NewMemory(1 << 22)
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(2 * i)
	}
	pa := mem.AllocF64(a)
	pb := mem.AllocF64(b)
	pc := mem.Alloc(n*8, 64)
	args := []uint64{mosaicsim.ArgPtr(pa), mosaicsim.ArgPtr(pb), mosaicsim.ArgPtr(pc), mosaicsim.ArgI64(n)}
	tr, err := k.Trace(mem, args, 1, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynamic trace: %d instructions, %d memory events, %d basic blocks\n",
		tr.TotalDynInstrs(), tr.TotalMemEvents(), tr.Tiles[0].BBPath.Len())

	// The functional execution really computed the result.
	fmt.Printf("C[10] = %.0f (want 30)\n\n", mem.ReadF64(pc+10*8))

	// 3. Replay the trace on the Table II out-of-order core.
	cfg := &mosaicsim.SystemConfig{
		Name:  "quickstart",
		Tiles: []mosaicsim.TileDef{{Kind: "ooo"}},
		Mem:   mosaicsim.TableIIMem(),
	}
	res, err := mosaicsim.Simulate(cfg, k, tr, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated: %d cycles, IPC %.2f, L1 hit rate %.1f%%, %d DRAM line fills, %.1f uJ\n",
		res.Cycles, res.IPC, 100*res.L1.HitRate(), res.DRAM.Reads, res.EnergyPJ/1e6)

	// 4. The same pipeline as one cancellable Session: an ad-hoc workload
	// wraps the kernel source plus the input setup, and the engine owns
	// compile → DDG → trace → build → run under a context.
	w := &mosaicsim.Workload{
		Name: "vecadd",
		Src:  src,
		Setup: func(mem *mosaicsim.Memory, _ mosaicsim.Scale) mosaicsim.Instance {
			pa := mem.AllocF64(a)
			pb := mem.AllocF64(b)
			pc := mem.Alloc(n*8, 64)
			return mosaicsim.Instance{Args: []uint64{pa, pb, pc, n}}
		},
	}
	sess, err := mosaicsim.NewSession(mosaicsim.SessionOptions{Workload: w, Config: cfg})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sres, err := sess.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session:   %d cycles, IPC %.2f (same engine the CLI and harness drive)\n",
		sres.Cycles, sres.IPC)
}
