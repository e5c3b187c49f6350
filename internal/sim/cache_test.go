package sim

import (
	"context"
	"testing"

	"mosaicsim/internal/workloads"
)

// Entries returns the total live entries across all layers (in-flight
// included).
func (c *Cache) Entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.kernels.m) + len(c.graphs.m) + len(c.slices.m) + len(c.arts.m) + len(c.scheds.m)
}

// buildArtifact traces one tiny ad-hoc workload through the given cache and
// returns its key.
func buildArtifact(t *testing.T, c *Cache, name string) Key {
	t.Helper()
	w := spinWorkload(name, 500)
	s, err := NewSession(Options{
		Workload: w,
		Scale:    workloads.Tiny,
		Config:   oneTileConfig(name),
		Cache:    c,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Artifact(context.Background()); err != nil {
		t.Fatal(err)
	}
	return s.Key()
}

func TestCacheCounters(t *testing.T) {
	c := NewCache()
	ka := buildArtifact(t, c, "ctr-a")
	before := c.Counters()
	if before.Misses == 0 {
		t.Fatalf("first build recorded no misses: %+v", before)
	}
	if before.Evictions != 0 {
		t.Fatalf("fresh cache has evictions: %+v", before)
	}
	// Same workload again: every layer hits, misses stay put. (The first
	// build may itself record hits — later stages re-fetch earlier layers —
	// so compare against its baseline rather than zero.)
	buildArtifact(t, c, "ctr-a")
	after := c.Counters()
	if after.Hits <= before.Hits {
		t.Fatalf("repeat build recorded no new hits: %+v -> %+v", before, after)
	}
	if after.Misses != before.Misses {
		t.Fatalf("repeat build re-missed: %+v -> %+v", before, after)
	}
	if !c.HasArtifact(ka) {
		t.Error("HasArtifact = false for a resident artifact")
	}
}

func TestHasArtifactIsAPeek(t *testing.T) {
	c := NewCache()
	key := KeyFor(spinWorkload("peek", 500), workloads.Tiny, SliceNone, []string{""})
	if c.HasArtifact(key) {
		t.Fatal("HasArtifact = true on an empty cache")
	}
	before := c.Counters()
	c.HasArtifact(key)
	if got := c.Counters(); got != before {
		t.Fatalf("peek moved counters: %+v -> %+v", before, got)
	}
	built := buildArtifact(t, c, "peek")
	if built != key {
		t.Fatalf("KeyFor %+v != session key %+v", key, built)
	}
	if !c.HasArtifact(key) {
		t.Error("HasArtifact = false after build")
	}
}

func TestCacheLRUEvictsBeyondCap(t *testing.T) {
	c := NewCache()
	c.SetMaxEntries(2)
	buildArtifact(t, c, "lru-a")
	buildArtifact(t, c, "lru-b")
	kc := buildArtifact(t, c, "lru-c")
	got := c.Counters()
	if got.Evictions == 0 {
		t.Fatalf("three distinct kernels under a cap of 2 evicted nothing: %+v", got)
	}
	// Four layers, each capped at 2 (the SPMD path leaves the DAE layer
	// empty, but no layer may exceed the cap).
	if n := c.Entries(); n > 8 {
		t.Fatalf("cache holds %d entries, want <= 8 under a per-layer cap of 2", n)
	}
	// The newest artifact survived; rebuilding an evicted one is a miss.
	if !c.HasArtifact(kc) {
		t.Error("most-recently-built artifact was evicted")
	}
	missesBefore := got.Misses
	buildArtifact(t, c, "lru-a")
	if after := c.Counters(); after.Misses == missesBefore {
		t.Error("rebuilding an evicted artifact did not miss (stale entry served?)")
	}
}

func TestCacheLRUKeepsRecentlyTouched(t *testing.T) {
	c := NewCache()
	c.SetMaxEntries(2)
	ka := buildArtifact(t, c, "hot-a")
	kb := buildArtifact(t, c, "hot-b")
	// Touch a: it becomes most-recently used, so the next eviction takes b.
	buildArtifact(t, c, "hot-a")
	buildArtifact(t, c, "hot-c")
	if !c.HasArtifact(ka) {
		t.Error("recently-touched artifact a was evicted")
	}
	if c.HasArtifact(kb) {
		t.Error("least-recently-used artifact b survived past the cap")
	}
}

func TestSetMaxEntriesEvictsImmediately(t *testing.T) {
	c := NewCache()
	buildArtifact(t, c, "imm-a")
	buildArtifact(t, c, "imm-b")
	buildArtifact(t, c, "imm-c")
	if ev := c.Counters().Evictions; ev != 0 {
		t.Fatalf("unbounded cache evicted %d entries", ev)
	}
	c.SetMaxEntries(1)
	if ev := c.Counters().Evictions; ev == 0 {
		t.Fatal("SetMaxEntries did not evict an over-cap cache")
	}
	if n := c.Entries(); n > 4 {
		t.Fatalf("cache holds %d entries after capping at 1/layer, want <= 4", n)
	}
	// Unbounding again (n <= 0) stops eviction without dropping anything.
	c.SetMaxEntries(0)
	evBefore := c.Counters().Evictions
	buildArtifact(t, c, "imm-d")
	buildArtifact(t, c, "imm-e")
	if ev := c.Counters().Evictions; ev != evBefore {
		t.Fatalf("unbounded cache evicted again: %d -> %d", evBefore, ev)
	}
}
