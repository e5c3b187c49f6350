package sim

import (
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/workloads"
)

// spmvOnOneTile is a session of spmv at tiny scale on one Table II
// out-of-order tile: the memory-bound kernel of the benchmark's sparse_1t.
func spmvOnOneTile(t *testing.T, c *Cache) *Session {
	t.Helper()
	w, err := workloads.Resolve("spmv")
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(Options{Workload: w, Scale: workloads.Tiny, Cache: c, Config: &config.SystemConfig{
		Name: "spmv-1xooo", Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 1}}, Mem: config.TableIIMem(),
	}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRunAllocatesPerLineNotPerMiss: a run allocates for the lines it touches,
// not for the misses it simulates. Every request, line fill and MSHR entry is
// recycled by its hierarchy, so a whole System.Run allocates fewer objects
// than a tenth of its L1 misses (a closure and a pooled request per miss made
// it about one each).
func TestRunAllocatesPerLineNotPerMiss(t *testing.T) {
	sys, err := spmvOnOneTile(t, NewCache()).BuildSystem(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := sys.Run(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocs, misses := after.Mallocs-before.Mallocs, sys.Result().L1.Misses
	if misses < 1000 {
		t.Fatalf("%d L1 misses: the run is too small to tell", misses)
	}
	if allocs*10 >= uint64(misses) {
		t.Errorf("the run allocated %d objects for %d L1 misses, want fewer than %d", allocs, misses, misses/10)
	}
}

// TestConcurrentHierarchies: two sessions running on separate goroutines over
// one artifact cache share nothing mutable below it — each hierarchy recycles
// its own requests — so their results equal serial runs byte for byte. Under
// -race this is the check that no request crosses hierarchies.
func TestConcurrentHierarchies(t *testing.T) {
	c := NewCache()
	run := func() []byte {
		res, err := spmvOnOneTile(t, c).Run(context.Background())
		if err != nil {
			t.Error(err)
			return nil
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Error(err)
		}
		return b
	}
	serial := run()
	var concurrent [2][]byte
	var wg sync.WaitGroup
	for i := range concurrent {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = run()
		}()
	}
	wg.Wait()
	for i, got := range concurrent {
		if string(got) != string(serial) {
			t.Errorf("concurrent run %d differs from the serial run:\n%s\n%s", i, got, serial)
		}
	}
}
