package soc

// Declarative topology construction: a tile-kind registry resolving preset
// names to core configurations, expansion of config.SystemConfig tile lists
// into concrete per-tile specs, and Build — the one topology builder every
// composition path (SPMD, DAE, heterogeneous SoCs) goes through.

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	// and accounted by the system's AccelTile.)
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

// ResolveTileKind returns the preset configuration for a registered kind,
// or an error with a did-you-mean suggestion.
func ResolveTileKind(name string) (config.CoreConfig, error) {
	if f, ok := tileKinds[name]; ok {
		return f(), nil
	}
	kinds := TileKinds()
	if s := stats.Closest(name, kinds); s != "" {
		return config.CoreConfig{}, fmt.Errorf("soc: unknown tile kind %q (did you mean %q?)", name, s)
	}
	return config.CoreConfig{}, fmt.Errorf("soc: unknown tile kind %q (registered: %v)", name, kinds)
}

// ResolvedTile is one concrete tile a topology instantiates: its full core
// configuration plus the declarative attributes the builder consumes.
type ResolvedTile struct {
	Cfg      config.CoreConfig
	Kind     string
	Role     string // "" = SPMD
	MeshSlot int    // -1 = default (row-major by tile ID)
}

// ExpandTiles resolves a system config's tile declarations — either legacy
// Cores or declarative Tiles — into one ResolvedTile per tile: kinds are
// looked up in the registry, overrides merged, clocks checked. The result
// order is the tile-ID order the trace binds to.
func ExpandTiles(sc *config.SystemConfig) ([]ResolvedTile, error) {
	var out []ResolvedTile
	for _, cs := range sc.Cores {
		for i := 0; i < cs.Count; i++ {
			out = append(out, ResolvedTile{Cfg: cs.Core, Kind: cs.Core.Name, MeshSlot: -1})
		}
	}
	for i, td := range sc.Tiles {
		rt, n, err := resolveTileDef(sc, i, &td)
		if err != nil {
			return nil, err
		}
		for k := 0; k < n; k++ {
			out = append(out, rt)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("soc: config %q declares no tiles", sc.Name)
	}
	return out, nil
}

// resolveTileDef resolves one declarative tile entry into its ResolvedTile
// and instance count.
func resolveTileDef(sc *config.SystemConfig, i int, td *config.TileDef) (ResolvedTile, int, error) {
	fail := func(err error) (ResolvedTile, int, error) {
		return ResolvedTile{}, 0, fmt.Errorf("soc: config %q: tile %d: %w", sc.Name, i, err)
	}
	var base config.CoreConfig
	kind := td.Kind
	switch {
	case td.Core != nil:
		base = *td.Core
		if kind == "" {
			kind = base.Name
		}
	case kind != "":
		var err error
		base, err = ResolveTileKind(kind)
		if err != nil {
			return fail(err)
		}
	default:
		return fail(fmt.Errorf("needs a kind or an explicit core config"))
	}
	if len(td.Overrides) > 0 {
		dec := json.NewDecoder(bytes.NewReader(td.Overrides))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&base); err != nil {
			return fail(fmt.Errorf("bad overrides for kind %q: %w", kind, err))
		}
	}
	if td.ClockMHz != 0 {
		base.ClockMHz = td.ClockMHz
	}
	if base.ClockMHz <= 0 {
		return fail(fmt.Errorf("kind %q: clock must be positive, got %d MHz", kind, base.ClockMHz))
	}
	role := td.Role
	if role == config.RoleSPMD {
		role = ""
	}
	slot := -1
	if td.MeshSlot != nil {
		slot = *td.MeshSlot
	}
	n := td.Count
	if n == 0 {
		n = 1
	}
	return ResolvedTile{Cfg: base, Kind: kind, Role: role, MeshSlot: slot}, n, nil
}

// Binding carries the compiled kernel artifacts a topology's tiles replay:
// the whole-kernel graph for SPMD-role tiles and the DAE slice graphs for
// access/execute-role tiles, plus the per-tile dynamic traces. PairDAE
// applies the legacy convention for topologies with no declared roles: even
// tiles take the access slice, odd tiles the execute slice.
type Binding struct {
	Graph   *ddg.Graph
	Access  *ddg.Graph
	Execute *ddg.Graph
	Trace   *trace.Trace
	PairDAE bool
}

// Build is the single topology builder: it expands the config's tile
// declarations, binds each tile to its kernel graph by role, constructs the
// system, and applies the NoC geometry (validated — an undersized mesh is a
// construction error, never silent off-grid placement). Every composition
// path — NewSPMD, sim.Session's BuildSystem, the examples — goes through
// here.
func Build(sc *config.SystemConfig, b Binding, accels map[string]AccelModel) (*System, error) {
	rts, err := ExpandTiles(sc)
	if err != nil {
		return nil, err
	}
	if b.Trace == nil {
		return nil, fmt.Errorf("soc: config %q: no trace bound to the topology", sc.Name)
	}
	if len(rts) > len(b.Trace.Tiles) {
		return nil, fmt.Errorf("soc: config wants more cores (%d+) than traced tiles (%d)", len(b.Trace.Tiles)+1, len(b.Trace.Tiles))
	}
	if len(rts) < len(b.Trace.Tiles) {
		return nil, fmt.Errorf("soc: trace has %d tiles but config instantiates %d cores", len(b.Trace.Tiles), len(rts))
	}
	specs := make([]TileSpec, len(rts))
	for i, rt := range rts {
		role := rt.Role
		if role == "" && b.PairDAE {
			role = config.RoleAccess
			if i%2 == 1 {
				role = config.RoleExecute
			}
		}
		var g *ddg.Graph
		switch role {
		case "":
			g = b.Graph
		case config.RoleAccess:
			g = b.Access
		case config.RoleExecute:
			g = b.Execute
		default:
			return nil, fmt.Errorf("soc: config %q: tile %d: unknown role %q", sc.Name, i, role)
		}
		if g == nil {
			return nil, fmt.Errorf("soc: config %q: tile %d needs the %s kernel graph but the binding has none", sc.Name, i, roleName(role))
		}
		specs[i] = TileSpec{Cfg: rt.Cfg, Kind: rt.Kind, Graph: g, TT: b.Trace.Tiles[i]}
	}
	sys, err := New(sc.Name, specs, sc.Mem, accels)
	if err != nil {
		return nil, err
	}
	sys.Fabric.Latency = sc.EffectiveFabricLatency()
	if sc.NoC != nil {
		w := sc.NoC.MeshWidth
		if w <= 0 || w*w < len(rts) {
			return nil, fmt.Errorf("soc: config %q: a %dx%d mesh cannot place %d tiles", sc.Name, w, w, len(rts))
		}
		sys.Fabric.MeshWidth = w
		sys.Fabric.HopCycles = sc.NoC.HopCycles
		if slots, err := meshSlots(sc.Name, rts, w); err != nil {
			return nil, err
		} else if slots != nil {
			sys.Fabric.Slots = slots
		}
	}
	return sys, nil
}

// meshSlots collects pinned NoC placements (nil when no tile pins one; the
// fabric then places tiles row-major by ID, the legacy layout).
func meshSlots(name string, rts []ResolvedTile, width int) ([]int, error) {
	pinned := 0
	for _, rt := range rts {
		if rt.MeshSlot >= 0 {
			pinned++
		}
	}
	if pinned == 0 {
		return nil, nil
	}
	if pinned != len(rts) {
		return nil, fmt.Errorf("soc: config %q: either every tile pins a mesh_slot or none does (%d of %d pinned)", name, pinned, len(rts))
	}
	slots := make([]int, len(rts))
	seen := map[int]bool{}
	for i, rt := range rts {
		s := rt.MeshSlot
		if s >= width*width {
			return nil, fmt.Errorf("soc: config %q: tile %d: mesh_slot %d outside the %dx%d mesh", name, i, s, width, width)
		}
		if seen[s] {
			return nil, fmt.Errorf("soc: config %q: mesh_slot %d pinned twice", name, s)
		}
		seen[s] = true
		slots[i] = s
	}
	return slots, nil
}

// roleName renders a role for error messages.
func roleName(role string) string {
	if role == "" {
		return "SPMD"
	}
	return role
}

// Roles returns the effective per-tile role sequence of a config — the
// trace-relevant projection of the topology (what slice each tile replays),
// independent of core kinds and clocks so artifact caching still shares
// traces across microarchitectures.
func Roles(sc *config.SystemConfig) ([]string, error) {
	rts, err := ExpandTiles(sc)
	if err != nil {
		return nil, err
	}
	roles := make([]string, len(rts))
	for i, rt := range rts {
		roles[i] = rt.Role
	}
	return roles, nil
}

// ReferenceClockMHz is the topology's first tile clock — the system
// reference clock drivers hand to accelerator models, matching the legacy
// Cores[0] convention.
func ReferenceClockMHz(sc *config.SystemConfig) (int, error) {
	rts, err := ExpandTiles(sc)
	if err != nil {
		return 0, err
	}
	return rts[0].Cfg.ClockMHz, nil
}
