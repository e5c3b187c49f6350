package replay

// Canonical configuration form and structural hash. Two system configs that
// differ only in replay-classifiable timing knobs must hash equal (so a
// sweep leg finds the recorded schedule), and configs that differ in
// anything that could reorder the schedule — tile counts, roles, queue
// capacities, cache geometry, the DRAM model — must hash differently (so
// the leg provably misses and falls back to full simulation).
//
// The canonical form is computed over the resolved topology with every
// classifiable knob normalized away:
//
//   - names (never affect timing);
//   - per-core MispredictPenalty, AtomicExtraLatency, and the mem-class
//     latency (classified by binding counts — the other per-class latencies
//     stay structural because the recorded Result carries no per-class
//     instruction counts to prove them unread);
//   - cache LatencyCycles per level, DRAM MinLatency, DirInvCycles, NoC
//     HopCycles;
//   - the DRAM knobs the selected model never reads (the banked model
//     ignores MinLatency/Bandwidth/Epoch; the simple model ignores the
//     banked timing set), plus SimpleDRAM bandwidth/epoch, which classify
//     by comparing the recorded and new per-epoch budgets.
//
// The bytes are JSON, spelled exactly as encoding/json once marshalled the
// normalized form: a persisted schedule's name is the hash of these bytes,
// so moving one byte orphans every store written so far. They are written
// by hand, field by field, because a replay hit computes them on every
// attempt; TestCanonMatchesEncodingJSON keeps the encoding/json form as the
// oracle, and fails on a config field added without being written here.

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"mosaicsim/internal/config"
	"mosaicsim/internal/soc"
)

// CanonJSON appends a topology's canonical form to b. A session writes its
// own topology's once per run into a reused buffer: the bytes hash into the
// schedule key (StructHash) and are what Classify compares against a recorded
// schedule's, which keeps its own (b nil). A NaN or infinite tile area has no
// canonical form: the error sends the run down the full path.
func CanonJSON(b []byte, t *soc.Topology) ([]byte, error) {
	b = append(b, `{"Tiles":[`...)
	for i := range t.Tiles {
		rt := &t.Tiles[i]
		if a := rt.Cfg.AreaMM2; math.IsNaN(a) || math.IsInf(a, 0) {
			return nil, fmt.Errorf("replay: tile %d: area_mm2 %v has no canonical form", i, a)
		}
		if i > 0 {
			b = append(b, ',')
		}
		role := rt.Role
		if t.SlicedRoles {
			role = "" // see soc.Topology.SlicedRoles
		}
		b = appendString(append(b, `{"Kind":`...), rt.Kind)
		b = appendString(append(b, `,"Role":`...), role)
		b = strconv.AppendInt(append(b, `,"MeshSlot":`...), int64(rt.MeshSlot), 10)
		b = appendCore(append(b, `,"Core":`...), &rt.Cfg)
		b = append(b, '}')
	}
	b = appendMem(append(b, `],"Mem":`...), &t.Mem)
	b = append(b, `,"NoC":`...)
	if t.NoC == nil {
		b = append(b, "null"...)
	} else {
		b = strconv.AppendInt(append(b, `{"mesh_width":`...), int64(t.NoC.MeshWidth), 10)
		b = append(b, `,"hop_cycles":0}`...)
	}
	// FabricLat stays structural (not normalized away): a base fabric
	// latency delta reorders message arrivals, which no replay proof covers.
	b = strconv.AppendInt(append(b, `,"FabricLat":`...), t.FabricLat, 10)
	return append(b, '}'), nil
}

// appendCore writes a core config with its classifiable knobs normalized
// away (name, mispredict penalty, atomic latency, the latency overrides),
// followed by the effective per-class latency vector, so an override equal
// to the default compares equal to an absent one.
func appendCore(b []byte, c *config.CoreConfig) []byte {
	b = strconv.AppendInt(append(b, `{"Cfg":{"name":"","issue_width":`...), int64(c.IssueWidth), 10)
	b = strconv.AppendInt(append(b, `,"window_size":`...), int64(c.WindowSize), 10)
	b = strconv.AppendInt(append(b, `,"lsq_size":`...), int64(c.LSQSize), 10)
	b = strconv.AppendInt(append(b, `,"max_live_dbb":`...), int64(c.MaxLiveDBB), 10)
	if len(c.FunctionalUnits) > 0 {
		b = appendIntMap(append(b, `,"functional_units":`...), c.FunctionalUnits)
	}
	b = appendString(append(b, `,"branch":`...), string(c.Branch))
	b = strconv.AppendBool(append(b, `,"mispredict_penalty":0,"perfect_alias_spec":`...), c.PerfectAliasSpec)
	b = strconv.AppendBool(append(b, `,"in_order":`...), c.InOrder)
	b = strconv.AppendBool(append(b, `,"decoupled_supply":`...), c.DecoupledSupply)
	b = strconv.AppendInt(append(b, `,"clock_mhz":`...), int64(c.ClockMHz), 10)
	b = appendFloat(append(b, `,"area_mm2":`...), c.AreaMM2)
	b = strconv.AppendInt(append(b, `,"max_messages":`...), int64(c.MaxMessages), 10)
	b = append(b, `,"atomic_extra_latency":0},"EffLat":[`...)
	// The effective latencies as CoreConfig.Latency resolves them, from one
	// walk over the overrides instead of a lookup per class.
	lat := config.DefaultLatencies
	for name, v := range c.Latencies {
		for cl := range config.NumClasses {
			if cl.String() == name {
				lat[cl] = v
			}
		}
	}
	// The mem-class entry is never consulted (memory ops take their latency
	// from the hierarchy), so it is classifiable and normalized away.
	lat[config.ClassMem] = 0
	for cl, v := range lat {
		if cl > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, v, 10)
	}
	return append(b, "]}"...)
}

func appendMem(b []byte, m *config.MemConfig) []byte {
	b = appendCache(append(b, `{"l1":`...), &m.L1)
	if m.L2 != nil {
		b = appendCache(append(b, `,"l2":`...), m.L2)
	}
	if m.LLC != nil {
		b = appendCache(append(b, `,"llc":`...), m.LLC)
	}
	// DRAM: MinLatency, bandwidth and epoch always classify. Under the
	// banked model the DDR timing knobs classify by traffic count and the
	// channel/bank/row geometry, which shapes the address mapping, stays
	// structural; under the simple model ("" selects it too: the alias is
	// normalized) the whole banked set is unread.
	d := &m.DRAM
	if d.Model == config.DRAMBanked {
		b = strconv.AppendInt(append(b, `,"dram":{"model":"banked","min_latency":0,"bandwidth_gbs":0,"epoch_cycles":0,"channels":`...), int64(d.Channels), 10)
		b = strconv.AppendInt(append(b, `,"banks":`...), int64(d.Banks), 10)
		b = strconv.AppendInt(append(b, `,"row_bytes":`...), int64(d.RowBytes), 10)
	} else {
		b = append(b, `,"dram":{"model":"simple","min_latency":0,"bandwidth_gbs":0,"epoch_cycles":0,"channels":0,"banks":0,"row_bytes":0`...)
	}
	b = append(b, `,"t_cas":0,"t_rcd":0,"t_rp":0,"t_burst":0}`...)
	if m.Directory {
		b = append(b, `,"directory":true`...)
	}
	// DirInvCycles classifies: always zero, so its omitempty key is absent.
	return append(b, '}')
}

// appendCache writes a cache config without its name and access latency.
func appendCache(b []byte, c *config.CacheConfig) []byte {
	b = strconv.AppendInt(append(b, `{"name":"","size_kb":`...), int64(c.SizeKB), 10)
	b = strconv.AppendInt(append(b, `,"line_bytes":`...), int64(c.LineBytes), 10)
	b = strconv.AppendInt(append(b, `,"assoc":`...), int64(c.Assoc), 10)
	b = strconv.AppendInt(append(b, `,"latency_cycles":0,"mshrs":`...), int64(c.MSHRs), 10)
	b = strconv.AppendInt(append(b, `,"ports_per_cycle":`...), int64(c.PortsPerCycle), 10)
	b = strconv.AppendInt(append(b, `,"prefetch_degree":`...), int64(c.PrefetchDegree), 10)
	return append(b, '}')
}

// appendIntMap writes a per-class map with its keys in byte order, as
// encoding/json does. Validate admits only class names as keys, so the key
// array stays on the stack.
func appendIntMap(b []byte, m map[string]int) []byte {
	var arr [config.NumClasses]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for i, k := range keys {
		if i == 0 {
			b = append(b, '{')
		} else {
			b = append(b, ',')
		}
		b = appendString(b, k)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(m[k]), 10)
	}
	return append(b, '}')
}

// appendFloat writes a finite float the way encoding/json does: the shortest
// decimal that round-trips, in exponent form only below 1e-6 or from 1e21 on,
// with a one-digit negative exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	if abs == 0 || (abs >= 1e-6 && abs < 1e21) {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendString writes s as a quoted JSON string with encoding/json's
// escaping: HTML-sensitive characters and control bytes as \u00XX (the five
// with short forms as those), invalid UTF-8 as \ufffd, and U+2028/U+2029
// escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// StructHash hashes a canonical form: equal for configs whose differences the
// replay classifier can examine, different for anything that could reorder a
// recorded schedule. It keys the schedule layer of sim.Cache alongside the
// workload key. It is 64-bit FNV-1a.
func StructHash(canon []byte) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, c := range canon {
		h ^= uint64(c)
		h *= prime
	}
	return h
}
