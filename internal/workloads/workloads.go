// Package workloads provides MosaicSim-Go's benchmark suite: the eleven
// Parboil-style kernels of the paper's accuracy study (§VI-A), plus the
// case-study kernels — bipartite graph projection (§VII-A), the element-wise
// sparse⊙dense product EWSD, and the dense SGEMM microbenchmarks with and
// without accelerator offload (§VII-B). Each workload carries its kernel
// source, a deterministic synthetic input generator, and a correctness check
// against a plain Go implementation.
package workloads

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"mosaicsim/internal/accel"
	"mosaicsim/internal/cc"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/interp"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/stats"
	"mosaicsim/internal/trace"
)

// Scale selects a workload size.
type Scale int

// Workload scales: Tiny for unit tests, Small for the experiment harness,
// Large for longer studies.
const (
	Tiny Scale = iota
	Small
	Large
)

// pick returns the scale-appropriate value.
func pick[T any](s Scale, tiny, small, large T) T {
	switch s {
	case Tiny:
		return tiny
	case Large:
		return large
	default:
		return small
	}
}

// Instance is one generated run of a workload.
type Instance struct {
	Args []uint64
	// Check validates simulated memory against a Go reference, given the
	// number of tiles that executed the kernel; nil-safe.
	Check func(mem *interp.Memory, tiles int) error
	// Acc maps accelerator intrinsics the kernel calls to functional
	// implementations for the DTG.
	Acc map[string]interp.AccFunc
}

// Workload is one benchmark.
type Workload struct {
	Name string
	Desc string
	Src  string
	// Setup allocates and fills inputs deterministically.
	Setup func(mem *interp.Memory, s Scale) Instance
	// Mem overrides the simulated-memory image size in bytes (0 = MemBytes).
	// Ad-hoc workloads whose inputs outgrow the default image (e.g. lowered
	// DNN training steps) set it to their own footprint.
	Mem int64
	// Opt selects the compiler optimization pipeline folded into the
	// compiled module. The zero value is O0 (no passes); sim.KeyFor mixes
	// Opt's canonical hash into the source hash, so cache artifacts and
	// recorded replay schedules at different opt levels never alias.
	Opt ir.OptConfig

	once sync.Once
	mod  *ir.Module
	err  error
}

// Kernel compiles (once) and returns the workload's kernel function, with
// the workload's optimization pipeline applied.
func (w *Workload) Kernel() (*ir.Function, error) {
	w.once.Do(func() {
		w.mod, w.err = cc.CompileWithOpt(w.Src, w.Name, w.Opt)
	})
	if w.err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, w.err)
	}
	return w.mod.Func("kernel"), nil
}

// WithOpt returns a copy of the workload carrying the given optimization
// config, with a fresh compile cache so the pipeline actually runs (the
// original is untouched and may already be compiled).
func (w *Workload) WithOpt(opt ir.OptConfig) *Workload {
	return &Workload{
		Name:  w.Name,
		Desc:  w.Desc,
		Src:   w.Src,
		Setup: w.Setup,
		Mem:   w.Mem,
		Opt:   opt,
	}
}

// MemBytes is the simulated-memory image size used for workload runs.
const MemBytes = 1 << 26

// memBytes returns the workload's image size, honoring the Mem override.
func (w *Workload) memBytes() int64 {
	if w.Mem > 0 {
		return w.Mem
	}
	return MemBytes
}

// Trace compiles, sets up, and natively executes the workload on the given
// tile count, returning the DDG and dynamic trace (running the correctness
// check first).
func (w *Workload) Trace(tiles int, s Scale) (*ddg.Graph, *trace.Trace, error) {
	f, err := w.Kernel()
	if err != nil {
		return nil, nil, err
	}
	tr, err := w.TraceWith(f, tiles, s)
	if err != nil {
		return nil, nil, err
	}
	return ddg.Build(f), tr, nil
}

// TraceWith sets up and natively executes an already-compiled kernel of this
// workload SPMD on the given tile count (the Dynamic Trace Generator),
// running the correctness check before returning the trace. It is the
// driver glue the session engine (internal/sim) shares with Trace, so the
// setup/check/release discipline lives in exactly one place.
func (w *Workload) TraceWith(f *ir.Function, tiles int, s Scale) (*trace.Trace, error) {
	mem := interp.NewMemory(w.memBytes())
	inst := w.Setup(mem, s)
	res, err := interp.Run(f, mem, inst.Args, interp.Options{NumTiles: tiles, Acc: inst.Acc})
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	if inst.Check != nil {
		if err := inst.Check(mem, tiles); err != nil {
			return nil, fmt.Errorf("workload %s: result check: %w", w.Name, err)
		}
	}
	// The trace records addresses, never data: the image is dead once the
	// result check passes, so its buffer goes back to the interp pool.
	mem.Release()
	return res.Trace, nil
}

// TracePairs natively executes DAE access/execute slices of this workload on
// pairs of tiles sharing one memory image (even tiles access, odd tiles
// execute), with the same setup/check/release discipline as TraceWith.
func (w *Workload) TracePairs(access, execute *ir.Function, pairs int, s Scale) (*trace.Trace, error) {
	fns := make([]*ir.Function, 0, 2*pairs)
	for i := 0; i < pairs; i++ {
		fns = append(fns, access, execute)
	}
	mem := interp.NewMemory(w.memBytes())
	inst := w.Setup(mem, s)
	res, err := interp.RunTiles(fns, mem, inst.Args, interp.Options{Acc: inst.Acc})
	if err != nil {
		return nil, fmt.Errorf("workload %s (dae): %w", w.Name, err)
	}
	if inst.Check != nil {
		if err := inst.Check(mem, len(fns)); err != nil {
			return nil, fmt.Errorf("workload %s (dae): result check: %w", w.Name, err)
		}
	}
	mem.Release()
	return res.Trace, nil
}

func rng(name string) *rand.Rand {
	var seed int64 = 42
	for _, c := range name {
		seed = seed*131 + int64(c)
	}
	return rand.New(rand.NewSource(seed))
}

func approxEq(a, b float64) bool {
	d := math.Abs(a - b)
	return d <= 1e-6*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// BFS builds the bfs workload.
func BFS() *Workload {
	return &Workload{
		Name: "bfs",
		Desc: "level-synchronous breadth-first search (latency-bound, atomics)",
		Src:  bfsSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			// Sized so the Small working set (cols+levels) overflows the
			// private caches, keeping BFS memory-latency-bound as in the
			// paper's characterization.
			n := pick(s, 200, 60000, 400000)
			deg := 4
			r := rng("bfs")
			pr := mem.Alloc(int64(n+1)*8, 64)
			pc := mem.Alloc(int64(n*deg)*8, 64)
			pl := mem.Alloc(int64(n)*8, 64)
			pv := mem.Alloc(8, 64)
			for u := uint64(0); u < uint64(n); u++ {
				e := u * uint64(deg)
				mem.WriteI64(pr+8*u, int64(e))
				// A ring edge keeps the graph connected; extra random edges
				// make the frontier irregular.
				mem.WriteI64(pc+8*e, int64((u+1)%uint64(n)))
				for d := uint64(1); d < uint64(deg); d++ {
					mem.WriteI64(pc+8*(e+d), int64(r.Intn(n)))
				}
				mem.WriteI64(pl+8*u, -1)
			}
			mem.WriteI64(pr+8*uint64(n), int64(n*deg))
			mem.WriteI64(pl, 0)
			mem.WriteI64(pv, 0)
			want, depth := bfsLevels(mem, pr, pc, n)
			return Instance{
				Args: []uint64{pr, pc, pl, pv, uint64(n), uint64(depth + 1)},
				Check: func(mem *interp.Memory, _ int) error {
					for i, l := range want {
						if got := mem.ReadI64(pl + uint64(i)*8); got != int64(l) {
							return fmt.Errorf("levels[%d] = %d, want %d", i, got, l)
						}
					}
					return nil
				},
			}
		},
	}
}

// bfsLevels returns the BFS level of every vertex of the CSR graph at pr/pc
// in the image from vertex 0 (-1 when unreachable), and the deepest level.
// It expands one level per sweep over the vertices, so its only scratch is
// the int32 levels themselves.
func bfsLevels(mem *interp.Memory, pr, pc uint64, n int) (levels []int32, depth int32) {
	levels = make([]int32, n)
	for i := range levels {
		levels[i] = -1
	}
	levels[0] = 0
	for grew := true; grew; {
		grew = false
		for u := range levels {
			if levels[u] != depth {
				continue
			}
			for e := mem.ReadI64(pr + 8*uint64(u)); e < mem.ReadI64(pr+8*uint64(u+1)); e++ {
				if v := mem.ReadI64(pc + 8*uint64(e)); levels[v] < 0 {
					levels[v], grew = depth+1, true
				}
			}
		}
		if grew {
			depth++
		}
	}
	return levels, depth
}

// CUTCP builds the cutoff-Coulombic-potential workload.
func CUTCP() *Workload {
	return &Workload{
		Name: "cutcp",
		Desc: "cutoff Coulombic potential on a 3D grid (compute-bound)",
		Src:  cutcpSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			g := pick(s, 6, 12, 24)
			natoms := pick(s, 32, 128, 512)
			h, cut2 := 0.5, 4.0
			r := rng("cutcp")
			ax := make([]float64, natoms)
			ay := make([]float64, natoms)
			az := make([]float64, natoms)
			aq := make([]float64, natoms)
			for i := 0; i < natoms; i++ {
				ax[i] = r.Float64() * float64(g) * h
				ay[i] = r.Float64() * float64(g) * h
				az[i] = r.Float64() * float64(g) * h
				aq[i] = r.Float64()*2 - 1
			}
			pax, pay, paz, paq := mem.AllocF64(ax), mem.AllocF64(ay), mem.AllocF64(az), mem.AllocF64(aq)
			np := g * g * g
			pg := mem.Alloc(int64(np)*8, 64)
			return Instance{
				Args: []uint64{pax, pay, paz, paq, pg, uint64(natoms), uint64(g), interp.ArgF64(h), interp.ArgF64(cut2)},
				Check: func(mem *interp.Memory, _ int) error {
					// Spot-check a handful of grid points.
					for _, p := range []int{0, np / 3, np - 1} {
						ix, iy, iz := p%g, (p/g)%g, p/(g*g)
						x, y, z := float64(ix)*h, float64(iy)*h, float64(iz)*h
						want := 0.0
						for a := 0; a < natoms; a++ {
							dx, dy, dz := ax[a]-x, ay[a]-y, az[a]-z
							r2 := dx*dx + dy*dy + dz*dz
							if r2 < cut2 && r2 > 1e-6 {
								want += aq[a] * (1/math.Sqrt(r2) - 1/math.Sqrt(cut2))
							}
						}
						if got := mem.ReadF64(pg + uint64(p)*8); !approxEq(got, want) {
							return fmt.Errorf("grid[%d] = %g, want %g", p, got, want)
						}
					}
					return nil
				},
			}
		},
	}
}

// HISTO builds the saturating-histogram workload.
func HISTO() *Workload {
	return &Workload{
		Name: "histo",
		Desc: "saturating image histogram (scattered atomics)",
		Src:  histoSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			n := pick(s, 2000, 40000, 400000)
			bins := 256
			r := rng("histo")
			img := make([]int32, n)
			want := make([]int32, bins)
			raw := make([]int32, bins) // unsaturated counts
			for i := range img {
				// Skewed distribution saturates hot bins, as in Parboil.
				v := int32(r.NormFloat64()*30 + 128)
				if v < 0 {
					v = 0
				}
				if v >= int32(bins) {
					v = int32(bins) - 1
				}
				img[i] = v
				raw[v]++
				if want[v] < 255 {
					want[v]++
				}
			}
			pi := mem.AllocI32(img)
			ph := mem.AllocI32(make([]int32, bins))
			return Instance{
				Args: []uint64{pi, ph, uint64(n), uint64(bins)},
				// The kernel's `if (hist[v] < 255) atomic_add(...)` is a
				// test-then-act race across tiles: every tile can pass the
				// test at 254 before any of them adds, and each overshoots a
				// bin at most once (after its own add it reads >= 255). So a
				// saturated bin holds 255 plus at most tiles-1, never more
				// than the bin's raw count; unsaturated bins stay exact.
				Check: func(mem *interp.Memory, tiles int) error {
					for b := range want {
						hi := want[b]
						if raw[b] > 255 {
							hi = min(raw[b], 255+int32(tiles)-1)
						}
						if got := mem.ReadI32(ph + uint64(b)*4); got < want[b] || got > hi {
							return fmt.Errorf("hist[%d] = %d, want %d..%d", b, got, want[b], hi)
						}
					}
					return nil
				},
			}
		},
	}
}

// LBM builds the lattice-Boltzmann workload.
func LBM() *Workload {
	return &Workload{
		Name: "lbm",
		Desc: "lattice-Boltzmann collide/stream sweep (bandwidth-bound)",
		Src:  lbmSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			nx := pick(s, 18, 66, 258)
			ny := nx
			cells := nx * ny
			r := rng("lbm")
			src := make([]float64, 5*cells)
			for i := range src {
				src[i] = r.Float64()
			}
			ps := mem.AllocF64(src)
			pd := mem.Alloc(int64(5*cells)*8, 64)
			return Instance{
				Args: []uint64{ps, pd, uint64(nx), uint64(ny)},
				Check: func(mem *interp.Memory, _ int) error {
					// Check one interior cell's relaxation.
					ix, iy := nx/2, ny/2
					c := iy*nx + ix
					f := [5]float64{
						src[c], src[cells+c-1], src[2*cells+c+1],
						src[3*cells+c+nx], src[4*cells+c-nx],
					}
					rho := f[0] + f[1] + f[2] + f[3] + f[4]
					eq := rho * 0.2
					want := f[0] + 0.6*(eq-f[0])
					if got := mem.ReadF64(pd + uint64(c)*8); !approxEq(got, want) {
						return fmt.Errorf("dst[%d] = %g, want %g", c, got, want)
					}
					return nil
				},
			}
		},
	}
}

// MRIGridding builds the MRI gridding workload.
func MRIGridding() *Workload {
	return &Workload{
		Name: "mri-gridding",
		Desc: "k-space sample gridding with bilinear splatting (irregular atomics)",
		Src:  griddingSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			n := pick(s, 500, 10000, 100000)
			g := pick(s, 16, 64, 128)
			r := rng("mri-gridding")
			sx := make([]float64, n)
			sy := make([]float64, n)
			sv := make([]float64, n)
			want := make([]float64, g*g)
			for i := 0; i < n; i++ {
				sx[i] = r.Float64() * float64(g-1)
				sy[i] = r.Float64() * float64(g-1)
				sv[i] = r.Float64()
				ix, iy := int(sx[i]), int(sy[i])
				if ix > g-2 {
					ix = g - 2
				}
				if iy > g-2 {
					iy = g - 2
				}
				fx, fy := sx[i]-float64(ix), sy[i]-float64(iy)
				want[iy*g+ix] += sv[i] * (1 - fx) * (1 - fy)
				want[iy*g+ix+1] += sv[i] * fx * (1 - fy)
				want[(iy+1)*g+ix] += sv[i] * (1 - fx) * fy
				want[(iy+1)*g+ix+1] += sv[i] * fx * fy
			}
			px, py, pv := mem.AllocF64(sx), mem.AllocF64(sy), mem.AllocF64(sv)
			pg := mem.Alloc(int64(g*g)*8, 64)
			return Instance{
				Args: []uint64{px, py, pv, pg, uint64(n), uint64(g)},
				Check: func(mem *interp.Memory, _ int) error {
					for i := range want {
						if got := mem.ReadF64(pg + uint64(i)*8); !approxEq(got, want[i]) {
							return fmt.Errorf("grid[%d] = %g, want %g", i, got, want[i])
						}
					}
					return nil
				},
			}
		},
	}
}

// MRIQ builds the MRI Q-matrix workload.
func MRIQ() *Workload {
	return &Workload{
		Name: "mri-q",
		Desc: "MRI Q-matrix trigonometric accumulation (compute-bound)",
		Src:  mriqSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			n := pick(s, 24, 128, 1024)  // voxels
			nk := pick(s, 64, 256, 2048) // k-space samples
			r := rng("mri-q")
			mk := func(count int, scale float64) []float64 {
				v := make([]float64, count)
				for i := range v {
					v[i] = (r.Float64()*2 - 1) * scale
				}
				return v
			}
			kx, ky, kz, phi := mk(nk, 0.5), mk(nk, 0.5), mk(nk, 0.5), mk(nk, 1)
			vx, vy, vz := mk(n, 1), mk(n, 1), mk(n, 1)
			pkx, pky, pkz, pphi := mem.AllocF64(kx), mem.AllocF64(ky), mem.AllocF64(kz), mem.AllocF64(phi)
			pvx, pvy, pvz := mem.AllocF64(vx), mem.AllocF64(vy), mem.AllocF64(vz)
			pr := mem.Alloc(int64(n)*8, 64)
			pi := mem.Alloc(int64(n)*8, 64)
			return Instance{
				Args: []uint64{pkx, pky, pkz, pphi, pvx, pvy, pvz, pr, pi, uint64(n), uint64(nk)},
				Check: func(mem *interp.Memory, _ int) error {
					for _, v := range []int{0, n / 2, n - 1} {
						var qr, qi float64
						for k := 0; k < nk; k++ {
							ph := 2 * math.Pi * (kx[k]*vx[v] + ky[k]*vy[v] + kz[k]*vz[v])
							qr += phi[k] * math.Cos(ph)
							qi += phi[k] * math.Sin(ph)
						}
						if got := mem.ReadF64(pr + uint64(v)*8); !approxEq(got, qr) {
							return fmt.Errorf("outR[%d] = %g, want %g", v, got, qr)
						}
						if got := mem.ReadF64(pi + uint64(v)*8); !approxEq(got, qi) {
							return fmt.Errorf("outI[%d] = %g, want %g", v, got, qi)
						}
					}
					return nil
				},
			}
		},
	}
}

// SAD builds the block-matching workload.
func SAD() *Workload {
	return &Workload{
		Name: "sad",
		Desc: "block-matching sums of absolute differences (integer compute-bound)",
		Src:  sadSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			w := pick(s, 32, 64, 128)
			bdim, win := 8, 2
			r := rng("sad")
			cur := make([]int32, w*w)
			ref := make([]int32, w*w)
			for i := range cur {
				cur[i] = int32(r.Intn(256))
				ref[i] = int32(r.Intn(256))
			}
			nbx := (w - 2*win) / bdim
			nb := nbx * nbx
			pc, pr := mem.AllocI32(cur), mem.AllocI32(ref)
			pb := mem.Alloc(int64(nb)*8, 64)
			return Instance{
				Args: []uint64{pc, pr, pb, uint64(w), uint64(bdim), uint64(win)},
				Check: func(mem *interp.Memory, _ int) error {
					for _, b := range []int{0, nb - 1} {
						by := (b/nbx)*bdim + win
						bx := (b%nbx)*bdim + win
						best := int64(1000000000)
						for dy := -win; dy <= win; dy++ {
							for dx := -win; dx <= win; dx++ {
								var sad int64
								for j := 0; j < bdim; j++ {
									for i := 0; i < bdim; i++ {
										d := int64(cur[(by+j)*w+bx+i]) - int64(ref[(by+j+dy)*w+bx+i+dx])
										if d < 0 {
											d = -d
										}
										sad += d
									}
								}
								if sad < best {
									best = sad
								}
							}
						}
						if got := mem.ReadI64(pb + uint64(b)*8); got != best {
							return fmt.Errorf("best[%d] = %d, want %d", b, got, best)
						}
					}
					return nil
				},
			}
		},
	}
}

// SGEMM builds the dense matrix-multiply workload.
func SGEMM() *Workload {
	return &Workload{
		Name: "sgemm",
		Desc: "single-precision dense matrix multiplication (compute-bound)",
		Src:  sgemmSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			return sgemmSetup(mem, s)
		},
	}
}

func sgemmSetup(mem *interp.Memory, s Scale) Instance {
	dim := pick(s, 12, 40, 160)
	r := rng("sgemm")
	a := make([]float32, dim*dim)
	b := make([]float32, dim*dim)
	for i := range a {
		a[i] = r.Float32()
		b[i] = r.Float32()
	}
	pa, pb := mem.AllocF32(a), mem.AllocF32(b)
	pc := mem.Alloc(int64(dim*dim)*4, 64)
	return Instance{
		Args: []uint64{pa, pb, pc, uint64(dim)},
		Acc:  accel.FuncRegistry(),
		Check: func(mem *interp.Memory, _ int) error {
			for _, idx := range []int{0, dim*dim/2 + dim/3, dim*dim - 1} {
				i, j := idx/dim, idx%dim
				var want float32
				for k := 0; k < dim; k++ {
					want += a[i*dim+k] * b[k*dim+j]
				}
				got := mem.ReadF32(pc + uint64(idx)*4)
				if math.Abs(float64(got-want)) > 1e-3 {
					return fmt.Errorf("C[%d] = %g, want %g", idx, got, want)
				}
			}
			return nil
		},
	}
}

// SGEMMAccel builds the accelerator-offloaded SGEMM microbenchmark.
func SGEMMAccel() *Workload {
	return &Workload{
		Name: "sgemm-accel",
		Desc: "SGEMM offloaded to the fixed-function accelerator (§VII-B)",
		Src:  sgemmAccelSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			return sgemmSetup(mem, s)
		},
	}
}

// SPMV builds the sparse matrix-vector workload.
func SPMV() *Workload {
	return &Workload{
		Name: "spmv",
		Desc: "CSR sparse matrix-vector product (bandwidth-bound)",
		Src:  spmvSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			// A rectangular matrix: few rows over a huge column space, so
			// the x-vector gathers exceed the LLC and 8 streaming cores
			// oversubscribe DRAM bandwidth (Fig. 9's sublinear scaling).
			n := pick(s, 300, 16000, 60000)
			m := pick(s, 1<<15, 1<<22, 1<<22) // x-vector length
			nnzPerRow := pick(s, 8, 12, 12)
			r := rng("spmv")
			nnz := n * nnzPerRow
			pr := mem.Alloc(int64(n+1)*8, 64)
			pc := mem.Alloc(int64(nnz)*8, 64)
			pv := mem.Alloc(int64(nnz)*8, 64)
			px := mem.Alloc(int64(m)*8, 64)
			py := mem.Alloc(int64(n)*8, 64)
			for row := uint64(0); row <= uint64(n); row++ {
				mem.WriteI64(pr+8*row, int64(row)*int64(nnzPerRow))
			}
			fillSparse(mem, r, pc, pv, nnz, m)
			fillF64(mem, r, px, m)
			rows := []int{0, n / 2, n - 1}
			want := make([]float64, len(rows))
			for k, row := range rows {
				for e := uint64(row * nnzPerRow); e < uint64((row+1)*nnzPerRow); e++ {
					want[k] += mem.ReadF64(pv+8*e) * mem.ReadF64(px+8*uint64(mem.ReadI64(pc+8*e)))
				}
			}
			return Instance{
				Args: []uint64{pr, pc, pv, px, py, uint64(n)},
				Check: func(mem *interp.Memory, _ int) error {
					for k, row := range rows {
						if got := mem.ReadF64(py + uint64(row)*8); !approxEq(got, want[k]) {
							return fmt.Errorf("y[%d] = %g, want %g", row, got, want[k])
						}
					}
					return nil
				},
			}
		},
	}
}

// Stencil builds the Jacobi-stencil workload.
func Stencil() *Workload {
	return &Workload{
		Name: "stencil",
		Desc: "2D 5-point Jacobi sweep (bandwidth-bound)",
		Src:  stencilSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			nx := pick(s, 20, 130, 512)
			ny := nx
			r := rng("stencil")
			src := make([]float64, nx*ny)
			for i := range src {
				src[i] = r.Float64()
			}
			ps := mem.AllocF64(src)
			pd := mem.Alloc(int64(nx*ny)*8, 64)
			return Instance{
				Args: []uint64{ps, pd, uint64(nx), uint64(ny)},
				Check: func(mem *interp.Memory, _ int) error {
					for _, p := range []int{nx + 1, nx*ny/2 + 3, nx*ny - nx - 2} {
						want := 0.2 * (src[p] + src[p-1] + src[p+1] + src[p-nx] + src[p+nx])
						if got := mem.ReadF64(pd + uint64(p)*8); !approxEq(got, want) {
							return fmt.Errorf("dst[%d] = %g, want %g", p, got, want)
						}
					}
					return nil
				},
			}
		},
	}
}

// TPACF builds the two-point angular-correlation workload.
func TPACF() *Workload {
	return &Workload{
		Name: "tpacf",
		Desc: "two-point angular correlation histogram (compute + atomics)",
		Src:  tpacfSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			n := pick(s, 48, 300, 2000)
			bins := 32
			r := rng("tpacf")
			px := make([]float64, n)
			py := make([]float64, n)
			pz := make([]float64, n)
			for i := 0; i < n; i++ {
				// Random unit vectors.
				x, y, z := r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
				norm := math.Sqrt(x*x + y*y + z*z)
				px[i], py[i], pz[i] = x/norm, y/norm, z/norm
			}
			want := make([]int64, bins)
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					dot := px[i]*px[j] + py[i]*py[j] + pz[i]*pz[j]
					ang := math.Sqrt(math.Abs(2 - 2*dot))
					bin := int(ang * float64(bins) * 0.5)
					if bin >= bins {
						bin = bins - 1
					}
					if bin < 0 {
						bin = 0
					}
					want[bin]++
				}
			}
			ppx, ppy, ppz := mem.AllocF64(px), mem.AllocF64(py), mem.AllocF64(pz)
			ph := mem.AllocI64(make([]int64, bins))
			return Instance{
				Args: []uint64{ppx, ppy, ppz, ph, uint64(n), uint64(bins)},
				Check: func(mem *interp.Memory, _ int) error {
					for b := range want {
						if got := mem.ReadI64(ph + uint64(b)*8); got != want[b] {
							return fmt.Errorf("hist[%d] = %d, want %d", b, got, want[b])
						}
					}
					return nil
				},
			}
		},
	}
}

// Projection builds the bipartite graph projection workload (§VII-A).
func Projection() *Workload {
	return &Workload{
		Name: "projection",
		Desc: "bipartite graph projection (memory-latency-bound, §VII-A)",
		Src:  projectionSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			// The projection matrix (nP² doubles) deliberately exceeds the
			// private caches so the irregular updates are latency-bound.
			nA := pick(s, 60, 400, 2000)
			deg := 6
			nP := pick(s, 768, 1024, 2048)
			r := rng("projection")
			pr := mem.Alloc(int64(nA+1)*8, 64)
			pc := mem.Alloc(int64(nA*deg)*8, 64)
			pw := mem.Alloc(int64(nA*deg)*8, 64)
			pp := mem.Alloc(int64(nP*nP)*8, 64)
			for a := uint64(0); a <= uint64(nA); a++ {
				mem.WriteI64(pr+8*a, int64(a)*int64(deg))
			}
			for e := uint64(0); e < uint64(nA*deg); e++ {
				mem.WriteI64(pc+8*e, int64(r.Intn(nP)))
				mem.WriteF64(pw+8*e, r.Float64())
			}
			return Instance{
				Args: []uint64{pr, pc, pw, pp, uint64(nA), uint64(nP)},
				Check: func(mem *interp.Memory, _ int) error {
					return checkProjection(mem, pr, pc, pw, pp, nA, deg, nP)
				},
			}
		},
	}
}

// checkProjection rebuilds the projection from the image's graph, which the
// kernel only reads: each pair of a left vertex's edges to u != v adds the
// product of their weights to cell u·nP+v. The at most nA·deg² terms are
// sorted by cell, stably so each cell sums in the kernel's order, and every
// cell no term names must still read 0.
func checkProjection(mem *interp.Memory, pr, pc, pw, pp uint64, nA, deg, nP int) error {
	type term struct {
		cell int64
		w    float64
	}
	terms := make([]term, 0, nA*deg*deg)
	for a := uint64(0); a < uint64(nA); a++ {
		lo, hi := mem.ReadI64(pr+8*a), mem.ReadI64(pr+8*(a+1))
		for e1 := lo; e1 < hi; e1++ {
			for e2 := lo; e2 < hi; e2++ {
				if u, v := mem.ReadI64(pc+8*uint64(e1)), mem.ReadI64(pc+8*uint64(e2)); u != v {
					terms = append(terms, term{u*int64(nP) + v, mem.ReadF64(pw+8*uint64(e1)) * mem.ReadF64(pw+8*uint64(e2))})
				}
			}
		}
	}
	slices.SortStableFunc(terms, func(x, y term) int { return cmp.Compare(x.cell, y.cell) })
	for cell := int64(0); cell < int64(nP)*int64(nP); cell++ {
		want := 0.0
		for ; len(terms) > 0 && terms[0].cell == cell; terms = terms[1:] {
			want += terms[0].w
		}
		if got := mem.ReadF64(pp + uint64(cell)*8); !approxEq(got, want) {
			return fmt.Errorf("proj[%d] = %g, want %g", cell, got, want)
		}
	}
	return nil
}

// EWSD builds the element-wise sparse⊙dense workload (§VII-B).
func EWSD() *Workload {
	return &Workload{
		Name: "ewsd",
		Desc: "element-wise sparse⊙dense product (memory-latency-bound, §VII-B)",
		Src:  ewsdSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			// The dense operand exceeds the private caches so each gather is
			// a long-latency access (the EWSD premise of §VII-B).
			nnz := pick(s, 600, 8000, 100000)
			denseN := pick(s, 1<<19, 1<<20, 1<<22)
			r := rng("ewsd")
			pp := mem.Alloc(int64(nnz)*8, 64)
			pv := mem.Alloc(int64(nnz)*8, 64)
			pd := mem.Alloc(int64(denseN)*8, 64)
			po := mem.Alloc(int64(nnz)*8, 64)
			fillSparse(mem, r, pp, pv, nnz, denseN)
			fillF64(mem, r, pd, denseN)
			return Instance{
				Args:  []uint64{pp, pv, pd, po, uint64(nnz)},
				Check: sparseCheck(mem, pp, pv, pd, po, []int{0, nnz / 2, nnz - 1}),
			}
		},
	}
}

// Combined builds the §VII-B combined kernel: alternating dense (SGEMM) and
// sparse (EWSD) phases. denseFrac steers the dataset mix: the fraction of
// single-core cycles spent in the dense phase (the paper's dense-heavy /
// equal / sparse-heavy kernels use 0.75 / 0.5 / 0.25).
func Combined(name string, denseFrac float64) *Workload {
	return &Workload{
		Name: name,
		Desc: fmt.Sprintf("alternating SGEMM/EWSD phases (%d%% dense, §VII-B)", int(denseFrac*100)),
		Src:  combinedSrc,
		Setup: func(mem *interp.Memory, s Scale) Instance {
			// Baseline single-core costs scale as dim³ (dense) and nnz·L
			// (sparse, L ≈ DRAM latency); sizes below hold the requested
			// mix approximately at Small scale.
			dim := pick(s, 10, 24, 48)
			nnzBase := pick(s, 300, 3000, 20000)
			nnz := int(float64(nnzBase) * (1 - denseFrac) * 2)
			if nnz < 64 {
				nnz = 64
			}
			dim = int(float64(dim) * (0.6 + denseFrac))
			denseN := pick(s, 1<<18, 1<<20, 1<<22)
			iters := 2
			r := rng(name)
			a := make([]float32, dim*dim)
			bm := make([]float32, dim*dim)
			for i := range a {
				a[i] = r.Float32()
				bm[i] = r.Float32()
			}
			pa, pb := mem.AllocF32(a), mem.AllocF32(bm)
			pc := mem.Alloc(int64(dim*dim)*4, 64)
			pp := mem.Alloc(int64(nnz)*8, 64)
			pv := mem.Alloc(int64(nnz)*8, 64)
			pd := mem.Alloc(int64(denseN)*8, 64)
			po := mem.Alloc(int64(nnz)*8, 64)
			fillSparse(mem, r, pp, pv, nnz, denseN)
			fillF64(mem, r, pd, denseN)
			sparse := sparseCheck(mem, pp, pv, pd, po, []int{0, nnz - 1})
			return Instance{
				Args: []uint64{pa, pb, pc, uint64(dim), pp, pv, pd, po, uint64(nnz), uint64(iters)},
				Check: func(mem *interp.Memory, tiles int) error {
					for _, idx := range []int{0, dim*dim - 1} {
						i, j := idx/dim, idx%dim
						var want float32
						for k := 0; k < dim; k++ {
							want += a[i*dim+k] * bm[k*dim+j]
						}
						if got := mem.ReadF32(pc + uint64(idx)*4); math.Abs(float64(got-want)) > 1e-3 {
							return fmt.Errorf("C[%d] = %g, want %g", idx, got, want)
						}
					}
					return sparse(mem, tiles)
				},
			}
		},
	}
}

// The large inputs of spmv, ewsd and combined are generated in place: the
// arrays are allocated in the image first and then filled in generator order,
// so each input byte is written once, and reference values are read back from
// the pristine image before the kernel runs.

// fillSparse writes nnz (index, value) pairs, indices below denseN, to the
// arrays at pp and pv, drawing each pair's index and then its value.
func fillSparse(mem *interp.Memory, r *rand.Rand, pp, pv uint64, nnz, denseN int) {
	for i := uint64(0); i < uint64(nnz); i++ {
		mem.WriteI64(pp+8*i, int64(r.Intn(denseN)))
		mem.WriteF64(pv+8*i, r.Float64())
	}
}

// fillF64 writes n uniform float64s to the array at p.
func fillF64(mem *interp.Memory, r *rand.Rand, p uint64, n int) {
	for i := uint64(0); i < uint64(n); i++ {
		mem.WriteF64(p+8*i, r.Float64())
	}
}

// sparseCheck computes out[k] = vals[k] * dense[pos[k]] for each k from the
// pristine inputs and returns the Check of those entries of out.
func sparseCheck(mem *interp.Memory, pp, pv, pd, po uint64, ks []int) func(*interp.Memory, int) error {
	want := make([]float64, len(ks))
	for i, k := range ks {
		want[i] = mem.ReadF64(pv+uint64(k)*8) * mem.ReadF64(pd+uint64(mem.ReadI64(pp+uint64(k)*8))*8)
	}
	return func(mem *interp.Memory, _ int) error {
		for i, k := range ks {
			if got := mem.ReadF64(po + uint64(k)*8); !approxEq(got, want[i]) {
				return fmt.Errorf("out[%d] = %g, want %g", k, got, want[i])
			}
		}
		return nil
	}
}

// Parboil returns the eleven Parboil-style kernels in the paper's Fig. 5
// order.
func Parboil() []*Workload {
	return []*Workload{
		BFS(), CUTCP(), HISTO(), LBM(), MRIGridding(), MRIQ(),
		SAD(), SGEMM(), SPMV(), Stencil(), TPACF(),
	}
}

// All returns every workload, Parboil plus the case-study kernels.
func All() []*Workload {
	return append(Parboil(), SGEMMAccel(), Projection(), EWSD(),
		Combined("combined-equal", 0.5))
}

// DefaultAccelModels returns closed-form performance models for the three
// §VI-A accelerators, scaled to the given system clock. The design point
// (large PLM, modest 4-lane datapath) is the one whose speedup over an
// in-order software baseline matches the paper's Fig. 12 accelerator bar.
func DefaultAccelModels(systemMHz int) map[string]soc.AccelModel {
	dp := accel.DesignPoint{PLMBytes: 256 << 10, Lanes: 4}
	out := map[string]soc.AccelModel{}
	for _, name := range []string{"acc_sgemm", "acc_histo", "acc_elementwise"} {
		out[name] = &accel.Model{
			Acc:       accel.ByName(name, dp),
			Mode:      accel.ModeClosedForm,
			SystemMHz: systemMHz,
			MaxMemGBs: 24,
		}
	}
	return out
}

// ByName finds a workload.
func ByName(name string) *Workload {
	for _, w := range All() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// Names lists every workload name.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, w := range all {
		names[i] = w.Name
	}
	return names
}

// Resolve finds a workload by name, or fails immediately with a did-you-mean
// suggestion so an unknown name in a sweep list errors up front instead of
// mid-sweep after earlier legs have run.
func Resolve(name string) (*Workload, error) {
	if w := ByName(name); w != nil {
		return w, nil
	}
	if s := stats.Closest(name, Names()); s != "" {
		return nil, fmt.Errorf("unknown workload %q (did you mean %q?)", name, s)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
