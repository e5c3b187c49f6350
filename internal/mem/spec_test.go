package mem

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mosaicsim/internal/config"
)

// The memory side's executable specification, first cut: one private cache
// over a SimpleDRAM whose bandwidth never throttles, written as plainly as the
// behaviour allows. A set is an ordered list of ways, victims and MSHRs are
// found by scanning, and pending requests wait in one list in due order. It
// shares nothing with Cache but the stream it is driven by.

type specWay struct {
	tag          uint64
	used         int64
	dirty, valid bool
}

// specMSHR's waiters are stream indices, in arrival order.
type specMSHR struct {
	line    uint64
	waiters []int64
	dirty   bool
}

// specReq is stream[i] due at ready; a specFill, line due from the DRAM.
type specReq struct{ ready, i int64 }
type specFill struct{ ready, line int64 }

type specCache struct {
	cfg    config.CacheConfig
	nsets  uint64
	stream []access
	sets   [][]specWay
	mshrs  []specMSHR
	queue  []specReq
	fills  []specFill // in the order sent, which is completion order
	stats  CacheStats
	done   completions
}

const specDRAMLatency = 30 // every request's, fixed

// enqueue queues stream[i] for cycle ready, after those queued before it.
func (s *specCache) enqueue(i, ready int64) {
	k := slices.IndexFunc(s.queue, func(r specReq) bool { return r.ready > ready })
	if k < 0 {
		k = len(s.queue)
	}
	s.queue = slices.Insert(s.queue, k, specReq{ready, i})
}

// find returns line's valid way, or nil.
func (s *specCache) find(line uint64) *specWay {
	ways := s.sets[line%s.nsets]
	if w := slices.IndexFunc(ways, func(w specWay) bool { return w.valid && w.tag == line/s.nsets }); w >= 0 {
		return &ways[w]
	}
	return nil
}

// mshr returns the index of line's MSHR, or -1.
func (s *specCache) mshr(line uint64) int {
	return slices.IndexFunc(s.mshrs, func(m specMSHR) bool { return m.line == line })
}

// invalidate drops line's copy, reporting whether it was dirty.
func (s *specCache) invalidate(line uint64) (dirty bool) {
	if w := s.find(line); w != nil {
		dirty, w.valid, w.dirty = w.dirty, false, false
	}
	return dirty
}

// tick is one cycle: the DRAM returns every fill due, then the cache serves up
// to its ports' worth of due requests in queue order.
func (s *specCache) tick(now int64) {
	for len(s.fills) > 0 && s.fills[0].ready <= now {
		s.fill(uint64(s.fills[0].line), now)
		s.fills = s.fills[1:]
	}
	for port := 0; port < s.cfg.PortsPerCycle && len(s.queue) > 0 && s.queue[0].ready <= now; port++ {
		i := s.queue[0].i
		s.queue = s.queue[1:]
		s.serve(i, now)
	}
}

func (s *specCache) serve(i, now int64) {
	a := s.stream[i]
	line, write := a.addr/uint64(s.cfg.LineBytes), a.kind != Read
	s.stats.Accesses++
	if w := s.find(line); w != nil {
		s.stats.Hits++
		w.used, w.dirty = now, w.dirty || write
		s.done[i] = now
		return
	}
	if m := s.mshr(line); m >= 0 {
		s.stats.Coalesced++
		s.mshrs[m].waiters, s.mshrs[m].dirty = append(s.mshrs[m].waiters, i), s.mshrs[m].dirty || write
		return
	}
	if len(s.mshrs) >= s.cfg.MSHRs {
		s.stats.MSHRStalls++
		s.enqueue(i, now+1)
		return
	}
	s.stats.Misses++
	s.mshrs = append(s.mshrs, specMSHR{line: line, waiters: []int64{i}, dirty: write})
	s.fills = append(s.fills, specFill{now + specDRAMLatency, int64(line)})
}

// fill installs line in the first invalid way, else a new way, else the
// least recently used one, and completes the line's waiters.
func (s *specCache) fill(line uint64, now int64) {
	ways := s.sets[line%s.nsets]
	victim := slices.IndexFunc(ways, func(w specWay) bool { return !w.valid })
	if victim < 0 && len(ways) < s.cfg.Assoc {
		victim, ways = len(ways), append(ways, specWay{})
	}
	if victim < 0 {
		victim = 0
		for w := range ways {
			if ways[w].used < ways[victim].used {
				victim = w
			}
		}
		s.stats.Evictions++
		if ways[victim].dirty {
			s.stats.Writebacks++
		}
	}
	m := s.mshr(line)
	ways[victim] = specWay{tag: line / s.nsets, used: now, dirty: s.mshrs[m].dirty, valid: true}
	s.sets[line%s.nsets] = ways
	for _, i := range s.mshrs[m].waiters {
		s.done[i] = now
	}
	s.mshrs = slices.Delete(s.mshrs, m, m+1)
}

// specGeometries: 1, 8 and 20 ways, over set counts powers of two and not.
var specGeometries = []struct{ sizeKB, assoc int }{{6, 1}, {32, 8}, {50, 8}, {15, 20}, {40, 20}}

// matchSpec drives stream through a Cache over an unthrottled SimpleDRAM and
// the spec in lockstep, recalling a line accessed before every 20 cycles, and
// returns the cache, how often a set was seen holding a block another set held
// before, and the first difference in a recall, a completion, the stats or a line.
func matchSpec(sizeKB, assoc int, stream []access) (c *Cache, recycled int, err error) {
	cfg := config.CacheConfig{Name: "L1", SizeKB: sizeKB, LineBytes: 64, Assoc: assoc, LatencyCycles: 2, MSHRs: 4, PortsPerCycle: 2}
	c = NewCache(cfg, NewSimpleDRAM(config.DRAMConfig{Model: config.DRAMSimple, MinLatency: specDRAMLatency, BandwidthGBs: 1e4, EpochCycles: 100}, 2000, 64))
	s := &specCache{cfg: cfg, nsets: c.nsets, stream: stream, sets: make([][]specWay, c.nsets), done: make(completions, len(stream))}
	done := make(completions, len(stream))
	rng := rand.New(rand.NewSource(int64(len(stream))))
	holder := map[*cacheLine]uint64{} // a block, by its first line
	i := 0
	for now := int64(0); i < len(stream) || c.Busy() || c.next.Busy() || len(s.queue)+len(s.mshrs)+len(s.fills) > 0; now++ {
		for ; i < len(stream) && stream[i].at <= now; i++ {
			c.Access(&Request{Addr: stream[i].addr, Size: 8, Kind: stream[i].kind, Waiter: done, Tag: int64(i)}, now)
			s.enqueue(int64(i), now+cfg.LatencyCycles)
		}
		if now%20 == 0 && i > 0 {
			line := stream[rng.Intn(i)].addr / 64
			if got, want := c.Invalidate(line*64, 64), s.invalidate(line); got != want {
				return c, 0, fmt.Errorf("cycle %d: recalling line %#x dropped a dirty copy: %t, spec %t", now, line, got, want)
			}
		}
		c.next.Tick(now)
		c.Tick(now)
		s.tick(now)
		for set := uint64(0); now%16 == 0 && set < c.nsets; set++ {
			if w := c.ways(set); len(w) > 0 {
				if h, ok := holder[&w[0]]; ok && h != set {
					recycled++
				}
				holder[&w[0]] = set
			}
		}
	}
	for r := range done {
		if done[r] != s.done[r] {
			return c, 0, fmt.Errorf("request %d (%+v) completed at %d, spec %d", r, stream[r], done[r], s.done[r])
		}
	}
	if c.Stats != s.stats {
		return c, 0, fmt.Errorf("stats %+v, spec %+v", c.Stats, s.stats)
	}
	for set := range c.nsets {
		var got []specWay
		for _, l := range c.ways(set) {
			got = append(got, specWay{l.tag, int64(l.word >> lineFlagBits), l.word&lineDirty != 0, l.word&lineValid != 0})
		}
		if want := s.sets[set]; !slices.Equal(got, want) {
			return c, 0, fmt.Errorf("set %d holds %+v, spec %+v", set, got, want)
		}
	}
	return c, recycled, nil
}

// TestCacheMatchesSpec: over spans of four times each geometry's capacity,
// where every set grows through each block size and sets recycle the blocks
// others outgrew, every completion cycle, recall outcome, statistic and
// resident line equals the spec's.
func TestCacheMatchesSpec(t *testing.T) {
	for g, geo := range specGeometries {
		stream := recordedStream(int64(g), 6000, 1, uint64(geo.sizeKB)<<12)
		c, recycled, err := matchSpec(geo.sizeKB, geo.assoc, stream)
		if err != nil {
			t.Errorf("%d KB %d-way: %v", geo.sizeKB, geo.assoc, err)
			continue
		}
		if geo.assoc > 1 && recycled == 0 {
			t.Errorf("%d KB %d-way: no set was seen holding a block another set outgrew", geo.sizeKB, geo.assoc)
		}
		for set := range c.nsets {
			if n := len(c.ways(set)); n != geo.assoc {
				t.Errorf("%d KB %d-way: set %d grew to %d ways only", geo.sizeKB, geo.assoc, set, n)
				break
			}
		}
	}
}

// FuzzCacheVsSpec: any byte string is a request stream for one of the spec's
// geometries (the first byte picks it); three bytes an access: the gap since
// the last, the line within four times the capacity, and the kind.
func FuzzCacheVsSpec(f *testing.F) {
	f.Add([]byte{1, 0, 1, 0, 0, 2, 1, 3, 200, 0, 0, 64, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = append(data, 0)
		geo := specGeometries[int(data[0])%len(specGeometries)]
		lines := geo.sizeKB << 6 // four times the capacity, in 64-byte lines
		var stream []access
		now := int64(0)
		for b := data[1:]; len(b) >= 3 && len(stream) < 2000; b = b[3:] {
			now += int64(b[0]%8) + int64(b[0]/248)*100 // now and then an idle stretch
			line := (int(b[1]) | int(b[2]>>2)<<8) % lines
			stream = append(stream, access{at: now, addr: uint64(line)*64 + uint64(b[2]&3)*8, kind: []Kind{Read, Write, Atomic, Read}[b[2]&3]})
		}
		if _, _, err := matchSpec(geo.sizeKB, geo.assoc, stream); err != nil {
			t.Error(err)
		}
	})
}
