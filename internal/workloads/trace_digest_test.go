package workloads

// Trace-digest lock for the trace generator.
//
// testdata/trace_digests.json holds, for every built-in kernel at O0 and O2
// (one and four tiles at Tiny, one tile at Small), for DAE pairs, for a
// barrier kernel under a 7-instruction timeslice, and for 200 generated
// kernels, the SHA-256 of the decoded trace plus its event counts (and, for
// generated kernels, of the memory image the run leaves behind). The file
// was recorded from the tree-walking interpreter of commit 6188979; the
// interpreter that replaced it must reproduce every entry, so the file — not
// a reference copy of the old interpreter — is the oracle.
//
// Regenerate (only when a change to the traced semantics is intentional):
//
//	go test ./internal/workloads -run TestTraceDigests -update-trace-digests

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"testing"

	"mosaicsim/internal/core"
	"mosaicsim/internal/dae"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/interp"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/testgen"
	"mosaicsim/internal/trace"
)

var updateTraceDigests = flag.Bool("update-trace-digests", false,
	"rewrite testdata/trace_digests.json from the current interpreter")

const traceDigestPath = "testdata/trace_digests.json"

// traceDigest is what one run must reproduce exactly.
type traceDigest struct {
	SHA256    string `json:"sha256"` // of the decoded streams (digestOf)
	DynInstrs int64  `json:"dyn_instrs"`
	Mem       int    `json:"mem"`
	BBPath    int    `json:"bbpath"`
	Comm      int    `json:"comm"`
	Acc       int    `json:"acc"`
	// Image is the SHA-256 of the final A/B/F arrays (generated kernels).
	Image string `json:"image,omitempty"`
	// Profile is the SHA-256 of Result.Counts (runs made with Profile).
	Profile string `json:"profile,omitempty"`
}

// digestOf hashes what the run decided, decoded, so that a change of encoding
// moves no hash: per tile its ID and instruction count, then its path (the
// block IDs its bits walk to over the tile's kernel, fns[i%len(fns)]),
// addresses (each read against its instruction's last, in the order that walk
// runs them), partners and accelerator calls, each list behind its length.
func digestOf(tr *trace.Trace, fns ...*ir.Function) traceDigest {
	h := sha256.New()
	var buf []byte
	put := func(v uint64) bool {
		if buf = binary.LittleEndian.AppendUint64(buf, v); len(buf) >= 4096 {
			h.Write(buf)
			buf = buf[:0]
		}
		return true
	}
	d := traceDigest{DynInstrs: tr.TotalDynInstrs()}
	for i, tt := range tr.Tiles {
		put(uint64(tt.Tile))
		put(uint64(tt.DynInstrs))
		f := fns[i%len(fns)]
		p := core.Lower(ddg.Build(f))
		var blocks []int
		for w := tt.BBPath.Walk(p.CFG); ; {
			b, ok := w.Next()
			if !ok {
				break
			}
			blocks = append(blocks, b)
		}
		path := func(yield func(uint64) bool) {
			for _, b := range blocks {
				yield(uint64(b))
			}
		}
		addrs := func(yield func(uint64) bool) {
			r, last := tt.Mem.Cursor(), make([]uint64, f.NumInstrs()) // by MemSlot
			for _, b := range blocks {
				for _, sn := range p.Nodes(b) {
					if sn.Kind == core.KindMem {
						a, _ := r.NextAddr(&last[sn.MemSlot])
						yield(a)
					}
				}
			}
		}
		for _, s := range []struct {
			n    int
			each func(func(uint64) bool)
		}{{tt.BBPath.Len(), path}, {tt.Mem.Len(), addrs}, {tt.Comm.Len(), tt.Comm.Values}} {
			put(uint64(s.n))
			s.each(put)
		}
		put(uint64(len(tt.Acc)))
		for _, ac := range tt.Acc {
			put(uint64(len(ac.Name)))
			buf = append(buf, ac.Name...)
			put(uint64(len(ac.Params)))
			for _, p := range ac.Params {
				put(uint64(p))
			}
		}
		d.Mem += tt.Mem.Len()
		d.BBPath += tt.BBPath.Len()
		d.Comm += tt.Comm.Len()
		d.Acc += len(tt.Acc)
	}
	h.Write(buf)
	d.SHA256 = hex.EncodeToString(h.Sum(nil))
	return d
}

func hashWords[T uint64 | int64](rows ...[]T) string {
	h := sha256.New()
	for _, row := range rows {
		binary.Write(h, binary.LittleEndian, int64(len(row)))
		binary.Write(h, binary.LittleEndian, row)
	}
	return hex.EncodeToString(h.Sum(nil))
}

type digestCase struct {
	key string
	run func() (traceDigest, error)
}

// rawRun traces w by hand with explicit interpreter options (TraceWith takes
// none), running the result check like TraceWith does.
func rawRun(w *Workload, fns func(*ir.Function) ([]*ir.Function, error), opts interp.Options) (traceDigest, error) {
	f, err := w.Kernel()
	if err != nil {
		return traceDigest{}, err
	}
	tiles, err := fns(f)
	if err != nil {
		return traceDigest{}, err
	}
	mem := interp.NewMemory(w.memBytes())
	defer mem.Release()
	inst := w.Setup(mem, Tiny)
	opts.Acc = inst.Acc
	res, err := interp.RunTiles(tiles, mem, inst.Args, opts)
	if err != nil {
		return traceDigest{}, err
	}
	if err := inst.Check(mem, len(tiles)); err != nil {
		return traceDigest{}, err
	}
	d := digestOf(res.Trace, tiles...)
	if opts.Profile {
		d.Profile = hashWords(res.Counts...)
	}
	return d, nil
}

func spmd(n int) func(*ir.Function) ([]*ir.Function, error) {
	return func(f *ir.Function) ([]*ir.Function, error) {
		fns := make([]*ir.Function, n)
		for i := range fns {
			fns[i] = f
		}
		return fns, nil
	}
}

func daePairs(n int) func(*ir.Function) ([]*ir.Function, error) {
	return func(f *ir.Function) ([]*ir.Function, error) {
		sl, err := dae.Slice(f)
		if err != nil {
			return nil, err
		}
		var fns []*ir.Function
		for i := 0; i < n; i++ {
			fns = append(fns, sl.Access, sl.Execute)
		}
		return fns, nil
	}
}

func traceDigestCases() []digestCase {
	var cases []digestCase
	add := func(key string, run func() (traceDigest, error)) {
		cases = append(cases, digestCase{key, run})
	}
	for _, level := range []string{"O0", "O2"} {
		opt := ir.OptConfig{Level: level}
		for _, name := range Names() {
			for _, shape := range []struct {
				tag   string
				tiles int
				scale Scale
			}{{"tiny/1t", 1, Tiny}, {"tiny/4t", 4, Tiny}, {"small/1t", 1, Small}} {
				add(fmt.Sprintf("%s@%s/%s", name, level, shape.tag), func() (traceDigest, error) {
					w := ByName(name).WithOpt(opt)
					f, err := w.Kernel()
					if err != nil {
						return traceDigest{}, err
					}
					tr, err := w.TraceWith(f, shape.tiles, shape.scale)
					if err != nil {
						return traceDigest{}, err
					}
					return digestOf(tr, f), nil
				})
			}
		}
		for _, name := range []string{"projection", "ewsd"} {
			for _, pairs := range []int{2, 4} {
				add(fmt.Sprintf("%s@%s/dae/%dpair", name, level, pairs), func() (traceDigest, error) {
					w := ByName(name).WithOpt(opt)
					f, err := w.Kernel()
					if err != nil {
						return traceDigest{}, err
					}
					sl, err := dae.Slice(f)
					if err != nil {
						return traceDigest{}, err
					}
					tr, err := w.TracePairs(sl.Access, sl.Execute, pairs, Tiny)
					if err != nil {
						return traceDigest{}, err
					}
					return digestOf(tr, sl.Access, sl.Execute), nil
				})
			}
		}
	}
	// Scheduling-sensitive runs: a barrier kernel and an atomics kernel under
	// a 7-instruction timeslice, and a DAE pair whose recvs block — each with
	// the hot-spot profile, which counts blocked retries too.
	add("bfs@O0/tiny/4t/timeslice7/profile", func() (traceDigest, error) {
		return rawRun(BFS(), spmd(4), interp.Options{Timeslice: 7, Profile: true})
	})
	add("histo@O0/tiny/4t/timeslice7/profile", func() (traceDigest, error) {
		return rawRun(HISTO(), spmd(4), interp.Options{Timeslice: 7, Profile: true})
	})
	add("combined-equal@O2/tiny/3t/timeslice7/profile", func() (traceDigest, error) {
		w := Combined("combined-equal", 0.5).WithOpt(ir.OptConfig{Level: "O2"})
		return rawRun(w, spmd(3), interp.Options{Timeslice: 7, Profile: true})
	})
	add("projection@O0/dae/2pair/timeslice7/profile", func() (traceDigest, error) {
		return rawRun(Projection(), daePairs(2), interp.Options{Timeslice: 7, Profile: true})
	})
	add("sgemm-accel@O0/tiny/2t/profile", func() (traceDigest, error) {
		return rawRun(SGEMMAccel(), spmd(2), interp.Options{Profile: true})
	})
	for seed := int64(1); seed <= 200; seed++ {
		add(fmt.Sprintf("testgen/seed%03d@O0", seed), func() (traceDigest, error) {
			image, f, tr, err := testgen.Run(testgen.Source(seed), ir.OptConfig{Level: "O0"})
			if err != nil {
				return traceDigest{}, err
			}
			d := digestOf(tr, f)
			d.Image = hashWords(image)
			return d, nil
		})
	}
	return cases
}

func TestTraceDigests(t *testing.T) {
	cases := traceDigestCases()
	if *updateTraceDigests {
		out := map[string]traceDigest{}
		for _, c := range cases {
			d, err := c.run()
			if err != nil {
				t.Fatalf("%s: %v", c.key, err)
			}
			out[c.key] = d
		}
		data, err := json.MarshalIndent(out, "", " ") // map keys marshal sorted
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(traceDigestPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", traceDigestPath, len(out))
		return
	}
	want := readTraceDigests(t)
	if len(want) != len(cases) {
		t.Fatalf("digest file has %d cases, matrix has %d (regenerate with -update-trace-digests)", len(want), len(cases))
	}
	for _, c := range cases {
		t.Run(c.key, func(t *testing.T) {
			t.Parallel()
			got, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if w, ok := want[c.key]; !ok || !reflect.DeepEqual(got, w) {
				t.Errorf("trace diverged from the recorded interpreter:\nwant %+v\ngot  %+v", w, got)
			}
		})
	}
}

func readTraceDigests(t *testing.T) map[string]traceDigest {
	t.Helper()
	raw, err := os.ReadFile(traceDigestPath)
	if err != nil {
		t.Fatalf("missing trace digests (regenerate with -update-trace-digests): %v", err)
	}
	var want map[string]traceDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	return want
}
