package mem

// Directory implements the coherence extension the paper sketches for future
// work (§V-A: "a directory protocol can easily be implemented by treating
// the Interleaver as the directory and allowing it to communicate with the
// caches"). It is an MSI-style full-map directory over the cores' private
// cache stacks: reads register sharers, writes/atomics invalidate remote
// copies (really removing the lines, so subsequent remote accesses miss)
// and pay an invalidation round-trip latency.
type Directory struct {
	InvCycles int64
	Stats     DirStats

	entries map[uint64]dirEntry
	inv     []int // Access's invalidation list, reused
}

// DirStats counts coherence events.
type DirStats struct {
	Lookups       int64
	Invalidations int64 // remote copies removed
	Upgrades      int64 // write hits on shared lines
	DirtyFetches  int64 // reads that had to pull a remote dirty line
}

type dirEntry struct {
	sharers    uint64 // bitmask over cores, hence config.MaxDirectoryTiles
	dirtyOwner int    // core holding the line modified, or -1
}

// NewDirectory builds a directory with the given invalidation latency.
func NewDirectory(invCycles int64) *Directory {
	if invCycles <= 0 {
		invCycles = 30
	}
	return &Directory{InvCycles: invCycles, entries: map[uint64]dirEntry{}}
}

// Access records one demand access and returns the coherence penalty in
// cycles plus the cores whose private copies must be invalidated. The list is
// valid until the next Access.
func (d *Directory) Access(core int, line uint64, kind Kind) (penalty int64, invalidate []int) {
	d.Stats.Lookups++
	old, ok := d.entries[line]
	e := old
	if !ok {
		e.dirtyOwner = -1 // differs from old, so the entry is stored below
	}
	invalidate = d.inv[:0]
	me := uint64(1) << uint(core)
	switch kind {
	case Read:
		if e.dirtyOwner >= 0 && e.dirtyOwner != core {
			// Remote dirty copy: fetch through the directory; the owner
			// demotes (modeled as invalidation of the dirty copy).
			d.Stats.DirtyFetches++
			d.Stats.Invalidations++
			invalidate = append(invalidate, e.dirtyOwner)
			e.sharers &^= uint64(1) << uint(e.dirtyOwner)
			e.dirtyOwner = -1
			penalty = d.InvCycles
		}
		e.sharers |= me
	case Write, Atomic:
		others := e.sharers &^ me
		if others != 0 {
			d.Stats.Upgrades++
			penalty = d.InvCycles
			for c := 0; others != 0; c++ {
				if others&1 != 0 {
					d.Stats.Invalidations++
					invalidate = append(invalidate, c)
				}
				others >>= 1
			}
		}
		e.sharers = me
		e.dirtyOwner = core
	}
	if e != old {
		d.entries[line] = e
	}
	d.inv = invalidate
	return penalty, invalidate
}

// Invalidate removes every resident line overlapping the size bytes at addr
// from the cache (a directory recall, in the directory's line size, which
// need not be this cache's), reporting whether a dropped copy was dirty.
func (c *Cache) Invalidate(addr uint64, size int) bool {
	dirty := false
	for line := addr >> c.shift; line<<c.shift < addr+uint64(size); line++ {
		if cl := c.lookup(line); cl != nil {
			dirty = dirty || cl.word&lineDirty != 0
			cl.word &^= lineValid | lineDirty
		}
	}
	return dirty
}
