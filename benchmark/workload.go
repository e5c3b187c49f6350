package main

import (
	"context"
	"math/rand"
	"time"
)

// runConfig is what one run of one workload is given.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Smoke shrinks every workload to tiny inputs and one pass so the whole
	// code path can run inside a unit test.
	Smoke bool
	// WriteExpected records this run's results as the expected ones instead
	// of checking against them.
	WriteExpected bool
	// Bin is the directory the child binaries were built into; empty when
	// none were built.
	Bin string
}

func (c runConfig) rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }

// workload is one of the seven benchmark workloads. The runner calls setup,
// then pass one or more times, then close; the cycle repeats with a fresh
// setup as often as the workload asks for (see fresh).
type workload interface {
	// setup builds the state the passes run against from the seed alone. Its
	// wall time is one setup_s sample. rec is nil unless the run is traced.
	setup(ctx context.Context, rec *recorder) error
	// pass runs every op of the workload once. rec is nil for an untraced
	// pass.
	pass(ctx context.Context, rec *recorder) (passResult, error)
	// fresh reports whether every pass needs its own setup (daemons whose
	// caches must start cold) or passes can share one.
	fresh() bool
	// layers turns the traced passes into this workload's per-layer metrics.
	layers(ctx context.Context, lc *layerContext)
	// close releases what setup made. It is safe on a workload never set up.
	close()
}

// opStats are the simulated statistics of one op that must repeat exactly:
// between passes for any seed, and against expected/seed1.json for seed 1.
// Only the fields an op kind produces are non-zero.
type opStats struct {
	Cycles       int64 `json:"cycles,omitempty"`
	Instrs       int64 `json:"instrs,omitempty"`
	L1Accesses   int64 `json:"l1_accesses,omitempty"`
	L1Misses     int64 `json:"l1_misses,omitempty"`
	L2Accesses   int64 `json:"l2_accesses,omitempty"`
	L2Misses     int64 `json:"l2_misses,omitempty"`
	LLCAccesses  int64 `json:"llc_accesses,omitempty"`
	LLCMisses    int64 `json:"llc_misses,omitempty"`
	DRAMReads    int64 `json:"dram_reads,omitempty"`
	DDGNodes     int64 `json:"ddg_nodes,omitempty"`
	StaticInstrs int64 `json:"static_instrs,omitempty"`
}

// opResult is one op of one pass.
type opResult struct {
	// ID names the op within the seed's op list; ops with the same ID must
	// produce the same Stats.
	ID    string
	Wall  time.Duration
	Stats opStats
	// Err is why the op failed: an error from the system, a result check, a
	// job that did not finish done.
	Err error
	// Counts are the per-layer counts the op produced (stepped cycles,
	// stalls, cache hits); they feed layers, never verification.
	Counts map[string]float64
	// Samples are per-op readings that layers takes a median of over the
	// ops of the traced passes (a job's queue wait).
	Samples map[string]float64
}

// passResult is one pass: the wall time of its measured section and its ops.
type passResult struct {
	Wall time.Duration
	Ops  []opResult
	// PeakRSSMB is set by workloads whose simulating processes are children;
	// zero means "read the benchmark's own".
	PeakRSSMB float64
	// Counts are per-layer counts taken once per pass (a daemon's /metrics).
	Counts map[string]float64
}

// layerContext is what a workload's layers method works from and writes to.
type layerContext struct {
	cfg      runConfig
	traced   []passResult // the traced passes
	untraced []passResult
	setups   int                  // setups the run made, all of them traced
	durs     map[string][]float64 // span durations in seconds, by span name
	out      *results
}

// count returns the sum of a count over the first traced pass. Counts repeat
// exactly between passes of a workload that runs one op at a time, so one
// pass stands for all of them.
func (lc *layerContext) count(name string) float64 {
	if len(lc.traced) == 0 {
		return 0
	}
	return passCount(lc.traced[0], name)
}

// sampleMedian is the median of a per-op sample over the traced passes.
func (lc *layerContext) sampleMedian(name string) float64 {
	var xs []float64
	for _, p := range lc.traced {
		for _, op := range p.Ops {
			if v, ok := op.Samples[name]; ok {
				xs = append(xs, v)
			}
		}
	}
	return median(xs)
}

func passCount(p passResult, name string) float64 {
	sum := p.Counts[name]
	for _, op := range p.Ops {
		sum += op.Counts[name]
	}
	return sum
}

// ratio is a/b, and 0 where b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
