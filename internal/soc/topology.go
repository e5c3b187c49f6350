package soc

// The resolved topology: a tile-kind registry mapping preset names to core
// configurations, Resolve — which turns a config.SystemConfig, in either
// input spelling, into the one Topology everything downstream holds — and
// Build, the one system builder every composition path (SPMD, DAE,
// heterogeneous SoCs) goes through.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"sort"

	"mosaicsim/internal/config"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/stats"
	"mosaicsim/internal/trace"
)

// tileKinds maps a declarative tile kind name to its core-config preset.
// Guarded by nothing: registration happens from init functions or test
// setup, before any concurrent use.
var tileKinds = map[string]func() config.CoreConfig{
	"inorder": config.InOrderCore,
	"ooo":     config.OutOfOrderCore,
	"xeon":    config.XeonLikeCore,
	// The pre-RTL accelerator core tile of §III-A: wide, deep, with
	// replicated loop bodies. (Fixed-function accelerator *models* are not
	// tiles of this kind — they are AccelModels invoked through intrinsics
	// and accounted by the system's accelerator manager.)
	"accel-tile": func() config.CoreConfig { return config.AcceleratorTileCore(8) },
}

// RegisterTileKind adds (or replaces) a tile-kind preset under name. It is
// meant for init-time extension by embedders; registering after systems are
// being built concurrently is a race.
func RegisterTileKind(name string, preset func() config.CoreConfig) {
	tileKinds[name] = preset
}

// TileKinds lists the registered kind names, sorted.
func TileKinds() []string {
	out := make([]string, 0, len(tileKinds))
	for k := range tileKinds {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ResolvedTile is one concrete tile of a topology: its full, validated core
// configuration, the kind it is accounted under, the kernel artifact it
// replays and its place on the mesh.
type ResolvedTile struct {
	Cfg      config.CoreConfig
	Kind     string
	Role     string // "" = SPMD, else config.RoleAccess / config.RoleExecute
	MeshSlot int    // -1 = row-major by tile ID
}

// Topology is the resolved form of a system configuration, and the only
// form the simulator works from: a session resolves its config once and
// hands the Topology to the builder, the replay classifier and the cache
// keys. It shares no memory with the config it came from and nobody writes
// to it after Resolve, so sessions, recorded schedules and goroutines share
// one freely. The exported fields are also what a persisted schedule spells
// its configuration with.
type Topology struct {
	Name      string         `json:"-"`
	Tiles     []ResolvedTile // tile-ID order, the order the trace binds to
	Mem       config.MemConfig
	NoC       *config.NoCConfig
	FabricLat int64
	// SlicedRoles marks roles that DAE slicing assigned to a config that
	// declares none. Schedules and structural hashes recorded before roles
	// were resolved spell such roles as empty; replay's canonical form keeps
	// doing so, which is what keeps those stores addressable.
	SlicedRoles bool `json:",omitempty"`
}

// RefClockMHz is the first tile's clock: the reference clock drivers hand to
// accelerator models.
func (t *Topology) RefClockMHz() int { return t.Tiles[0].Cfg.ClockMHz }

// Resolve validates a system config and expands it, from either input
// spelling, into its Topology: kinds looked up, overrides merged, each
// resolved core validated, roles settled (daePairs gives a config that
// declares no access/execute roles alternating ones, the way DAE slicing
// maps a kernel onto role-less tiles), every tile placed on the mesh, and
// the modelled cache capacity bounded.
func Resolve(sc *config.SystemConfig, daePairs bool) (*Topology, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	fail := func(format string, args ...any) (*Topology, error) {
		return nil, fmt.Errorf("config %q: "+format, append([]any{sc.Name}, args...)...)
	}
	t := &Topology{Name: sc.Name, Mem: sc.Mem, FabricLat: sc.EffectiveFabricLatency()}
	if sc.Mem.L2 != nil {
		l2 := *sc.Mem.L2
		t.Mem.L2 = &l2
	}
	if sc.Mem.LLC != nil {
		llc := *sc.Mem.LLC
		t.Mem.LLC = &llc
	}
	tds, _ := sc.TileDefs() // Validate has read them once already
	declared := false
	for i := range tds {
		rt, err := resolveTile(&tds[i])
		if err != nil {
			return fail("tile %d: %w", i, err)
		}
		declared = declared || rt.Role != ""
		for k := 0; k < tds[i].Instances(); k++ {
			t.Tiles = append(t.Tiles, rt)
		}
	}
	if daePairs && !declared {
		if len(t.Tiles)%2 != 0 {
			return fail("DAE slicing needs an even tile count (access/execute pairs), got %d", len(t.Tiles))
		}
		for i := range t.Tiles {
			t.Tiles[i].Role = config.DAERole(i)
		}
		t.SlicedRoles = true
	}
	if err := t.place(sc.NoC); err != nil {
		return fail("%w", err)
	}
	cacheKB := t.Mem.L1.SizeKB
	if t.Mem.L2 != nil {
		cacheKB += t.Mem.L2.SizeKB
	}
	cacheKB *= len(t.Tiles)
	if t.Mem.LLC != nil {
		cacheKB += t.Mem.LLC.SizeKB
	}
	if cacheKB > config.MaxSystemCacheKB {
		return fail("%w", &config.SizeError{Owner: "system", Field: "size_kb", Value: cacheKB,
			Want: fmt.Sprintf("at most %d over all %d tiles' caches and the LLC", config.MaxSystemCacheKB, len(t.Tiles))})
	}
	return t, nil
}

// resolveTile resolves one tile definition: the one place a kind is looked
// up, overrides are decoded and a core configuration is validated.
func resolveTile(td *config.TileDef) (ResolvedTile, error) {
	rt := ResolvedTile{Kind: td.Kind, Role: td.Role, MeshSlot: -1}
	switch preset, ok := tileKinds[td.Kind]; {
	case td.Core != nil:
		rt.Cfg = *td.Core
		rt.Cfg.Latencies = maps.Clone(rt.Cfg.Latencies)
		rt.Cfg.FunctionalUnits = maps.Clone(rt.Cfg.FunctionalUnits)
		if rt.Kind == "" {
			rt.Kind = rt.Cfg.Name
		}
	case ok:
		rt.Cfg = preset()
	default:
		kinds := TileKinds()
		if s := stats.Closest(td.Kind, kinds); s != "" {
			return rt, fmt.Errorf("unknown tile kind %q (did you mean %q?)", td.Kind, s)
		}
		return rt, fmt.Errorf("unknown tile kind %q (registered: %v)", td.Kind, kinds)
	}
	if len(td.Overrides) > 0 {
		dec := json.NewDecoder(bytes.NewReader(td.Overrides))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&rt.Cfg); err != nil {
			return rt, fmt.Errorf("bad overrides for kind %q: %w", rt.Kind, err)
		}
	}
	if td.ClockMHz != 0 {
		rt.Cfg.ClockMHz = td.ClockMHz
	}
	if rt.Cfg.ClockMHz <= 0 {
		return rt, fmt.Errorf("kind %q: clock must be positive, got %d MHz", rt.Kind, rt.Cfg.ClockMHz)
	}
	if err := rt.Cfg.Validate(); err != nil {
		return rt, err
	}
	if rt.Role == config.RoleSPMD {
		rt.Role = ""
	}
	if td.MeshSlot != nil {
		if rt.MeshSlot = *td.MeshSlot; rt.MeshSlot < 0 {
			return rt, fmt.Errorf("mesh_slot %d outside the mesh", rt.MeshSlot)
		}
	}
	return rt, nil
}

// place checks the NoC geometry against the resolved tiles and adopts it: a
// mesh must hold every tile, and mesh slots are pinned by every tile or by
// none, each inside the mesh and to itself. Before these checks an undersized
// mesh silently computed off-grid coordinates and charged nonsense hop
// counts.
func (t *Topology) place(noc *config.NoCConfig) error {
	pinned := 0
	for _, rt := range t.Tiles {
		if rt.MeshSlot != -1 {
			pinned++
		}
	}
	if noc == nil {
		if pinned > 0 {
			return fmt.Errorf("mesh_slot set but no NoC configured")
		}
		return nil
	}
	w, n := noc.MeshWidth, len(t.Tiles)
	if w <= 0 {
		return fmt.Errorf("NoC mesh width must be positive, got %d", w)
	}
	if noc.HopCycles < 0 {
		return fmt.Errorf("NoC hop latency must be non-negative, got %d", noc.HopCycles)
	}
	if w*w < n {
		return fmt.Errorf("a %dx%d mesh has %d slots but the system has %d tiles", w, w, w*w, n)
	}
	if pinned > 0 && pinned < n {
		return fmt.Errorf("either every tile pins a mesh_slot or none does (%d pinned, %d not)", pinned, n-pinned)
	}
	if pinned > 0 { // then by every tile
		taken := map[int]bool{}
		for i, rt := range t.Tiles {
			if rt.MeshSlot >= w*w {
				return fmt.Errorf("tile %d (%s): mesh_slot %d outside the %dx%d mesh", i, rt.Kind, rt.MeshSlot, w, w)
			}
			if taken[rt.MeshSlot] {
				return fmt.Errorf("mesh_slot %d pinned twice", rt.MeshSlot)
			}
			taken[rt.MeshSlot] = true
		}
	}
	mesh := *noc
	t.NoC = &mesh
	return nil
}

// Binding carries the compiled kernel artifacts a topology's tiles replay:
// the whole-kernel graph for SPMD-role tiles and the DAE slice graphs for
// access/execute-role tiles, plus the per-tile dynamic traces.
type Binding struct {
	Graph   *ddg.Graph
	Access  *ddg.Graph
	Execute *ddg.Graph
	Trace   *trace.Trace
}

// Build is the single system builder: it binds each tile of a resolved
// topology to its kernel graph by role and to its trace, constructs the
// system, and applies the fabric latency and NoC placement. Every
// composition path — NewSPMD, sim.Session's BuildSystem, the examples — goes
// through here.
func Build(t *Topology, b Binding, accels map[string]AccelModel) (*System, error) {
	if b.Trace == nil {
		return nil, fmt.Errorf("soc: config %q: no trace bound to the topology", t.Name)
	}
	if len(t.Tiles) > len(b.Trace.Tiles) {
		return nil, fmt.Errorf("soc: config wants more cores (%d+) than traced tiles (%d)", len(b.Trace.Tiles)+1, len(b.Trace.Tiles))
	}
	if len(t.Tiles) < len(b.Trace.Tiles) {
		return nil, fmt.Errorf("soc: trace has %d tiles but config instantiates %d cores", len(b.Trace.Tiles), len(t.Tiles))
	}
	graphs := map[string]*ddg.Graph{"": b.Graph, config.RoleAccess: b.Access, config.RoleExecute: b.Execute}
	specs := make([]TileSpec, len(t.Tiles))
	for i, rt := range t.Tiles {
		g := graphs[rt.Role]
		if g == nil {
			role := rt.Role
			if role == "" {
				role = "SPMD"
			}
			return nil, fmt.Errorf("soc: config %q: tile %d needs the %s kernel graph but the binding has none", t.Name, i, role)
		}
		specs[i] = TileSpec{Cfg: rt.Cfg, Kind: rt.Kind, Graph: g, TT: b.Trace.Tiles[i]}
	}
	sys, err := New(t.Name, specs, t.Mem, accels)
	if err != nil {
		return nil, err
	}
	sys.Fabric.Latency = t.FabricLat
	if t.NoC != nil {
		sys.Fabric.MeshWidth = t.NoC.MeshWidth
		sys.Fabric.HopCycles = t.NoC.HopCycles
		if t.Tiles[0].MeshSlot != -1 {
			sys.Fabric.Slots = make([]int, len(t.Tiles))
			for i, rt := range t.Tiles {
				sys.Fabric.Slots[i] = rt.MeshSlot
			}
		}
	}
	return sys, nil
}
