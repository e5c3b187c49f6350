// Package config defines MosaicSim-Go's core, memory, and system
// configuration ("a comprehensive set of both core and system configuration
// files", §VI-B), JSON load/save, and presets reproducing the paper's
// Table I evaluation system and Table II DAE case-study parameters.
package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"mosaicsim/internal/stats"
)

// InstrClass buckets instructions for latency, energy, and functional-unit
// accounting.
type InstrClass uint8

// Instruction classes.
const (
	ClassIntALU InstrClass = iota
	ClassIntMul
	ClassIntDiv
	ClassFPALU
	ClassFPMul
	ClassFPDiv
	ClassMem     // loads/stores/atomics: dynamic latency from the hierarchy
	ClassBranch  // terminators
	ClassCast    // conversions / moves
	ClassSpecial // intrinsic calls, send/recv
	NumClasses
)

var classNames = [NumClasses]string{
	"int_alu", "int_mul", "int_div", "fp_alu", "fp_mul", "fp_div",
	"mem", "branch", "cast", "special",
}

func (c InstrClass) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// BranchPredictor selects the control-speculation model (§III-C). The paper's
// current release supports static and perfect prediction.
type BranchPredictor string

// Branch predictor kinds.
const (
	// BranchStatic predicts backward-taken/forward-not-taken and pays the
	// misprediction penalty when the traced path disagrees.
	BranchStatic BranchPredictor = "static"
	// BranchPerfect always follows the traced path with no penalty.
	BranchPerfect BranchPredictor = "perfect"
	// BranchDynamic is a gshare predictor (global history XOR branch PC into
	// a table of 2-bit counters) trained on the dynamic stream — the
	// "more realistic dynamic branch predictor" the paper defers to future
	// work (§III-C, footnote 2).
	BranchDynamic BranchPredictor = "dynamic"
	// BranchNone waits for the terminator to complete before launching the
	// next DBB (no control speculation at all).
	BranchNone BranchPredictor = "none"
)

var branchNames = []string{string(BranchNone), string(BranchStatic), string(BranchDynamic), string(BranchPerfect)}

// CoreConfig holds the microarchitectural resource limits of one core tile
// (§III-A).
type CoreConfig struct {
	Name string `json:"name"`
	// IssueWidth is the superscalar width W.
	IssueWidth int `json:"issue_width"`
	// WindowSize is the sliding instruction window (ROB) size.
	WindowSize int `json:"window_size"`
	// LSQSize is the Memory Address Orderer capacity.
	LSQSize int `json:"lsq_size"`
	// MaxLiveDBB caps live DBBs per static basic block (0 = unlimited). For
	// accelerator tiles this mimics replicated loop-body circuits (§III-A).
	MaxLiveDBB int `json:"max_live_dbb"`
	// FunctionalUnits caps in-flight instructions per class (0 = unlimited).
	FunctionalUnits map[string]int `json:"functional_units,omitempty"`
	// Branch selects the control-speculation model.
	Branch BranchPredictor `json:"branch"`
	// MispredictPenalty is the extra launch latency on a mispredicted DBB.
	MispredictPenalty int64 `json:"mispredict_penalty"`
	// PerfectAliasSpec enables perfect memory-alias speculation from the
	// trace (§III-C).
	PerfectAliasSpec bool `json:"perfect_alias_spec"`
	// InOrder selects in-order issue with out-of-order completion
	// (scoreboarded stall-on-use); false models full out-of-order issue
	// within the window.
	InOrder bool `json:"in_order"`
	// DecoupledSupply enables the DeSC structures of §VII-A: the terminal
	// load buffer (loads feeding sends are fire-and-forget) and the store
	// value buffer (stores drain when their communicated value arrives,
	// without stalling the core).
	DecoupledSupply bool `json:"decoupled_supply"`
	// ClockMHz is the tile clock; the Interleaver scales tiles with
	// different clocks (§II).
	ClockMHz int `json:"clock_mhz"`
	// AreaMM2 is the tile area from McPAT-style tables (Table II).
	AreaMM2 float64 `json:"area_mm2"`
	// Latencies overrides per-class fixed instruction latencies in cycles;
	// missing classes use defaults.
	Latencies map[string]int64 `json:"latencies,omitempty"`
	// MaxMessages is the inter-tile communication buffer capacity in
	// entries (Table II "Comm. Buffer Sizes"); 0 = default 512.
	MaxMessages int `json:"max_messages"`
	// AtomicExtraLatency adds cycles to every atomic RMW completion. The
	// hardware-reference model uses it for locked-operation and contention
	// costs that MosaicSim's memory system does not capture (§VI-A: BFS
	// accuracy suffers because atomics are "difficult to accurately model").
	AtomicExtraLatency int64 `json:"atomic_extra_latency"`
}

// DefaultLatencies are the fixed per-class instruction latencies in cycles.
// The ClassMem entry is never consulted by the timing model: memory ops take
// their latency from the hierarchy.
var DefaultLatencies = [NumClasses]int64{
	ClassIntALU: 1, ClassIntMul: 3, ClassIntDiv: 18,
	ClassFPALU: 3, ClassFPMul: 4, ClassFPDiv: 18,
	ClassMem: 1, ClassBranch: 1, ClassCast: 1, ClassSpecial: 1,
}

// Latency resolves the fixed latency for a class under this config. It is a
// build-time resolver (a string-keyed map lookup): the timing core calls it
// once per class when a tile is built and indexes the resulting table.
func (c *CoreConfig) Latency(cl InstrClass) int64 {
	if v, ok := c.Latencies[cl.String()]; ok {
		return v
	}
	return DefaultLatencies[cl]
}

// FULimit resolves the functional-unit cap for a class (0 = unlimited); a
// build-time resolver like Latency.
func (c *CoreConfig) FULimit(cl InstrClass) int {
	return c.FunctionalUnits[cl.String()]
}

// UnknownClassError reports a latencies / functional_units key that names no
// instruction class. Before Validate checked them, such a key (a typo like
// "fp_mull") was silently ignored and the default applied.
type UnknownClassError struct {
	Core  string // core config name
	Field string // "latencies" or "functional_units"
	Name  string // the offending key
}

func (e *UnknownClassError) Error() string {
	return fmt.Sprintf("core %q: %s: unknown instruction class %q (valid: %s)",
		e.Core, e.Field, e.Name, strings.Join(classNames[:], ", "))
}

// unknownClass returns the alphabetically first key of a per-class map that
// names no instruction class.
func unknownClass[V any](m map[string]V) (name string, found bool) {
next:
	for k := range m {
		for _, n := range classNames {
			if n == k {
				continue next
			}
		}
		if !found || k < name {
			name, found = k, true
		}
	}
	return name, found
}

// SizeError reports a knob whose value cannot size the structure it
// configures: outside its range, or a cache line that is not a power of two.
type SizeError struct {
	Owner string // `core "ooo"`, `cache "L2"`, "dram", "system"
	Field string // the knob's JSON key
	Value int
	Want  string // "at least 1", "at most 65536", "a power of two"
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("%s: %s must be %s, got %d", e.Owner, e.Field, e.Want, e.Value)
}

// knob is one bounded size field: its JSON key, its value and its range
// (min 0: no lower bound).
type knob struct {
	field           string
	value, min, max int
}

// checkKnobs returns a SizeError for the first knob outside its range.
func checkKnobs(owner string, knobs ...knob) error {
	for _, k := range knobs {
		want := ""
		switch {
		case k.min > 0 && k.value < k.min:
			want = fmt.Sprintf("at least %d", k.min)
		case k.value > k.max:
			want = fmt.Sprintf("at most %d", k.max)
		default:
			continue
		}
		return &SizeError{Owner: owner, Field: k.field, Value: k.value, Want: want}
	}
	return nil
}

// Validate rejects what the timing core would otherwise get wrong without a
// word: an issue width, window or LSQ below one entry (the core never issues
// and the run spins to its cycle limit), a size knob above MaxEntries (the
// process dies sizing the window), a per-class map key that names no
// instruction class (the default applies) and a branch predictor that names
// no model (it simulates as "none", as the empty value, which stays accepted,
// does). soc.Resolve calls it once per tile definition, on the resolved core.
func (c *CoreConfig) Validate() error {
	if err := checkKnobs(fmt.Sprintf("core %q", c.Name), knob{"issue_width", c.IssueWidth, 1, MaxEntries}, knob{"window_size", c.WindowSize, 1, MaxEntries},
		knob{"lsq_size", c.LSQSize, 1, MaxEntries}, knob{"max_messages", c.MaxMessages, 0, MaxEntries}); err != nil {
		return err
	}
	if n, ok := unknownClass(c.Latencies); ok {
		return &UnknownClassError{Core: c.Name, Field: "latencies", Name: n}
	}
	if n, ok := unknownClass(c.FunctionalUnits); ok {
		return &UnknownClassError{Core: c.Name, Field: "functional_units", Name: n}
	}
	if c.Branch == "" || slices.Contains(branchNames, string(c.Branch)) {
		return nil
	}
	if s := stats.Closest(string(c.Branch), branchNames); s != "" {
		return fmt.Errorf("core %q: unknown branch predictor %q (did you mean %q?)", c.Name, c.Branch, s)
	}
	return fmt.Errorf("core %q: unknown branch predictor %q (valid: %s)", c.Name, c.Branch, strings.Join(branchNames, ", "))
}

// CacheConfig configures one cache (§V-A).
type CacheConfig struct {
	Name      string `json:"name"`
	SizeKB    int    `json:"size_kb"`
	LineBytes int    `json:"line_bytes"`
	Assoc     int    `json:"assoc"`
	// LatencyCycles is the access (hit/tag) latency.
	LatencyCycles int64 `json:"latency_cycles"`
	// MSHRs is the miss-status holding register count (coalescing).
	MSHRs int `json:"mshrs"`
	// PortsPerCycle bounds requests accepted per cycle.
	PortsPerCycle int `json:"ports_per_cycle"`
	// PrefetchDegree is the number of lines prefetched on a detected stream
	// (0 disables the prefetcher).
	PrefetchDegree int `json:"prefetch_degree"`
}

// DRAMModel selects the memory model (§V-B).
type DRAMModel string

// DRAM model kinds.
const (
	// DRAMSimple is the paper's in-house SimpleDRAM: minimum latency plus
	// epoch-based maximum-bandwidth throttling.
	DRAMSimple DRAMModel = "simple"
	// DRAMBanked is the cycle-accurate bank/row model standing in for
	// DRAMSim2: slower to simulate, bank-conflict- and row-locality-aware.
	DRAMBanked DRAMModel = "banked"
)

// DRAMConfig configures the DRAM model.
type DRAMConfig struct {
	Model DRAMModel `json:"model"`
	// MinLatency is SimpleDRAM's fixed minimum latency in core cycles.
	MinLatency int64 `json:"min_latency"`
	// BandwidthGBs is the peak bandwidth enforced per epoch.
	BandwidthGBs float64 `json:"bandwidth_gbs"`
	// EpochCycles is the bandwidth-accounting window.
	EpochCycles int64 `json:"epoch_cycles"`
	// Banked-model timing (DDR-style, in cycles).
	Channels int   `json:"channels"`
	Banks    int   `json:"banks"`
	RowBytes int   `json:"row_bytes"`
	TCAS     int64 `json:"t_cas"`
	TRCD     int64 `json:"t_rcd"`
	TRP      int64 `json:"t_rp"`
	TBurst   int64 `json:"t_burst"`
}

// MemConfig is a complete memory hierarchy configuration.
type MemConfig struct {
	L1   CacheConfig  `json:"l1"`
	L2   *CacheConfig `json:"l2,omitempty"`  // private per-core, optional
	LLC  *CacheConfig `json:"llc,omitempty"` // shared, optional
	DRAM DRAMConfig   `json:"dram"`
	// Directory enables the MSI-style directory coherence extension over
	// the private cache stacks (§V-A future work).
	Directory bool `json:"directory,omitempty"`
	// DirInvCycles is the invalidation round-trip latency (default 30).
	DirInvCycles int64 `json:"dir_inv_cycles,omitempty"`
}

// NoCConfig arranges tiles on a 2D mesh whose links add per-hop latency to
// inter-tile messages (§V-A's future-work "message module").
type NoCConfig struct {
	MeshWidth int   `json:"mesh_width"`
	HopCycles int64 `json:"hop_cycles"`
}

// SystemConfig describes a whole simulated SoC. Tiles are declared in one of
// two input spellings, of which exactly one must be set: Tiles (preset kinds
// with overrides, roles and NoC placement) or Cores (full inline core
// configs, the older homogeneous spelling). TileDefs reads either as tile
// definitions; soc.Resolve turns those into the one form the simulator holds.
type SystemConfig struct {
	Name  string     `json:"name"`
	Cores []CoreSpec `json:"cores,omitempty"`
	Tiles []TileDef  `json:"tiles,omitempty"`
	Mem   MemConfig  `json:"mem"`
	NoC   *NoCConfig `json:"noc,omitempty"`
	// FabricLatency overrides the base inter-tile transfer latency in
	// cycles (NoC hop costs add on top). nil keeps the default of 1; 0
	// models an idealized same-cycle fabric.
	FabricLatency *int64 `json:"fabric_latency,omitempty"`
}

// EffectiveFabricLatency resolves the FabricLatency override (default 1).
func (sc *SystemConfig) EffectiveFabricLatency() int64 {
	if sc.FabricLatency != nil {
		return *sc.FabricLatency
	}
	return 1
}

// CoreSpec instantiates Count copies of a core configuration.
type CoreSpec struct {
	Core  CoreConfig `json:"core"`
	Count int        `json:"count"`
}

// TileDefs returns the tile declarations in the tiles spelling, whichever
// way the config spells them: a cores entry reads as a tile definition with
// an explicit core. It is the only reader of Cores.
func (sc *SystemConfig) TileDefs() ([]TileDef, error) {
	switch {
	case len(sc.Cores) == 0 && len(sc.Tiles) == 0:
		return nil, fmt.Errorf("config %q: no cores or tiles", sc.Name)
	case len(sc.Cores) == 0:
		return sc.Tiles, nil
	case len(sc.Tiles) > 0:
		return nil, fmt.Errorf("config %q: declare tiles through either cores or tiles, not both", sc.Name)
	}
	tds := make([]TileDef, len(sc.Cores))
	for i := range sc.Cores {
		cs := &sc.Cores[i]
		if cs.Count <= 0 {
			return nil, fmt.Errorf("config %q: core %q count must be positive", sc.Name, cs.Core.Name)
		}
		tds[i] = TileDef{Core: &cs.Core, Count: cs.Count}
	}
	return tds, nil
}

// Tile roles. A role binds a tile to one of the kernel artifacts the
// topology is simulated against: RoleSPMD tiles replay the whole kernel,
// RoleAccess/RoleExecute tiles replay the DAE slices (§VII-A). Access and
// execute tiles must alternate access-first — tile 2i pairs with tile 2i+1,
// which is the pairing the DAE slicer's tile_id()/2 rewriting assumes.
const (
	RoleSPMD    = "spmd"
	RoleAccess  = "access"
	RoleExecute = "execute"
)

// DAERole is the role of tile i in a topology of access/execute pairs.
func DAERole(i int) string {
	if i%2 == 0 {
		return RoleAccess
	}
	return RoleExecute
}

// TileDef declares Count tiles of one kind in a heterogeneous topology.
type TileDef struct {
	// Kind names a registered tile preset ("ooo", "inorder", "xeon",
	// "accel", ...); the registry lives in internal/soc. Ignored when Core
	// is set.
	Kind string `json:"kind,omitempty"`
	// Count instantiates that many identical tiles (0 means 1).
	Count int `json:"count,omitempty"`
	// Role selects the kernel artifact the tile replays; empty means
	// RoleSPMD.
	Role string `json:"role,omitempty"`
	// ClockMHz overrides the preset's clock.
	ClockMHz int `json:"clock_mhz,omitempty"`
	// MeshSlot pins the tile to a fixed slot on the NoC mesh (row-major).
	// Requires Count <= 1; when any tile pins a slot, all must.
	MeshSlot *int `json:"mesh_slot,omitempty"`
	// Overrides is a partial CoreConfig JSON object merged field-by-field
	// onto the preset (e.g. {"issue_width": 2, "max_live_dbb": 4}).
	Overrides json.RawMessage `json:"overrides,omitempty"`
	// Core is a complete explicit core configuration, bypassing Kind.
	Core *CoreConfig `json:"core,omitempty"`
}

// MaxTiles bounds the tiles one system may declare. Validation and expansion
// walk the instances one by one, so without a bound a count field in an
// untrusted submission (a job spec's inline topology) is a denial of
// service; the largest shipped system has 65.
const MaxTiles = 4096

// MaxDirectoryTiles bounds a system with the coherence directory on: the
// directory keeps one sharer bit per tile in a 64-bit mask.
const MaxDirectoryTiles = 64

// Limits on the knobs that size an allocation, for the same reason: beyond
// them core.New, mem.NewCache or a fabric queue's first send dies in
// makeslice (or takes the host's memory) and the whole process with it.
// MaxEntries bounds a core's window, LSQ, issue width and message buffers and
// a cache's ways, MSHRs and prefetch degree (largest shipped: 512);
// MaxCacheKB a cache's size (largest shipped: 20 MB); MaxSystemCacheKB the
// private caches of every tile plus the LLC (largest shipped: 64 tiles of
// 2,080 KB; every tile a system may declare at that size fits, 4,096 caches
// of 1 GiB do not), the cheap first line of a run's memory budget;
// MaxDRAMBanks the banked model's channels and banks per channel.
const (
	MaxEntries       = 1 << 16
	MaxCacheKB       = 1 << 20
	MaxSystemCacheKB = 1 << 24
	MaxDRAMBanks     = 1 << 10
)

// Instances is the number of tiles the definition instantiates.
func (td *TileDef) Instances() int {
	if td.Count == 0 {
		return 1
	}
	return td.Count
}

// Parse decodes a SystemConfig from JSON, in the tiles spelling whichever
// way the input spells it. Unknown fields are errors, so a misspelled or
// retired knob is named instead of silently ignored.
func Parse(data []byte) (*SystemConfig, error) {
	var sc SystemConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	tiles, err := sc.TileDefs()
	if err != nil {
		return nil, err
	}
	sc.Tiles, sc.Cores = tiles, nil
	return &sc, nil
}

// Load reads a SystemConfig from a JSON file through Parse.
func Load(path string) (*SystemConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Save writes a SystemConfig as indented JSON.
func (sc *SystemConfig) Save(path string) error {
	data, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Validate checks everything that needs no tile registry: the shape of the
// tile declarations, the role pairing, the caches and the DRAM. Tile kinds,
// the resolved cores and the NoC placement are soc.Resolve's to check, and
// Resolve runs Validate first.
func (sc *SystemConfig) Validate() error {
	tds, err := sc.TileDefs()
	if err != nil {
		return err
	}
	if sc.FabricLatency != nil && *sc.FabricLatency < 0 {
		return fmt.Errorf("config %q: fabric_latency must be >= 0, got %d", sc.Name, *sc.FabricLatency)
	}
	if err := sc.validateTiles(tds); err != nil {
		return err
	}
	for _, cc := range []*CacheConfig{&sc.Mem.L1, sc.Mem.L2, sc.Mem.LLC} {
		if cc == nil {
			continue
		}
		if cc.SizeKB <= 0 || cc.LineBytes <= 0 || cc.Assoc <= 0 {
			return fmt.Errorf("config %q: cache %q needs positive size, line, assoc", sc.Name, cc.Name)
		}
		owner := fmt.Sprintf("cache %q", cc.Name)
		err := checkKnobs(owner, knob{"size_kb", cc.SizeKB, 0, MaxCacheKB}, knob{"assoc", cc.Assoc, 0, MaxEntries},
			knob{"mshrs", cc.MSHRs, 0, MaxEntries}, knob{"prefetch_degree", cc.PrefetchDegree, 0, MaxEntries})
		if err == nil && cc.LineBytes&(cc.LineBytes-1) != 0 {
			// The caches index by shift, the directory by division.
			err = &SizeError{Owner: owner, Field: "line_bytes", Value: cc.LineBytes, Want: "a power of two"}
		}
		if err != nil {
			return fmt.Errorf("config %q: %w", sc.Name, err)
		}
		lines := cc.SizeKB * 1024 / cc.LineBytes
		if lines == 0 || lines%cc.Assoc != 0 {
			return fmt.Errorf("config %q: cache %q sets are not integral (%d lines / %d ways)", sc.Name, cc.Name, lines, cc.Assoc)
		}
	}
	if sc.Mem.DRAM.Model == "" {
		return fmt.Errorf("config %q: DRAM model unset", sc.Name)
	}
	if err := checkKnobs("dram", knob{"channels", sc.Mem.DRAM.Channels, 0, MaxDRAMBanks}, knob{"banks", sc.Mem.DRAM.Banks, 0, MaxDRAMBanks}); err != nil {
		return fmt.Errorf("config %q: %w", sc.Name, err)
	}
	return nil
}

// validateTiles checks the tile declarations: the system's size, then each
// entry's count and role, that it names a kind or carries a core, and that a
// pinned mesh slot pins one tile; last the DAE pairing constraint.
func (sc *SystemConfig) validateTiles(tds []TileDef) error {
	total := 0
	for i := range tds {
		if tds[i].Count < 0 { // before the sum, which a negative count would hide a huge one from
			return fmt.Errorf("config %q: tile %d: negative count %d", sc.Name, i, tds[i].Count)
		}
		total += min(tds[i].Instances(), MaxTiles+1) // clamped: the sum cannot overflow
	}
	if total > MaxTiles {
		return fmt.Errorf("config %q: more than %d tiles", sc.Name, MaxTiles)
	}
	if sc.Mem.Directory {
		if err := checkKnobs("directory", knob{"tiles", total, 0, MaxDirectoryTiles}); err != nil {
			return fmt.Errorf("config %q: %w", sc.Name, err)
		}
	}
	var roles []string
	for i, td := range tds {
		if td.Kind == "" && td.Core == nil {
			return fmt.Errorf("config %q: tile %d: needs a kind or an explicit core config", sc.Name, i)
		}
		switch td.Role {
		case "", RoleSPMD, RoleAccess, RoleExecute:
		default:
			return fmt.Errorf("config %q: tile %d (%s): unknown role %q (want %s, %s, or %s)",
				sc.Name, i, td.label(), td.Role, RoleSPMD, RoleAccess, RoleExecute)
		}
		if td.MeshSlot != nil && td.Instances() > 1 {
			return fmt.Errorf("config %q: tile %d (%s): mesh_slot requires count 1, got %d", sc.Name, i, td.label(), td.Instances())
		}
		for k := 0; k < td.Instances(); k++ {
			roles = append(roles, td.Role)
		}
	}
	return validateRoles(sc.Name, roles)
}

// validateRoles enforces the DAE pairing constraint: once any tile takes an
// access or execute role, the whole topology must be alternating
// access/execute pairs, because the slicer's tile_id()/2 rewriting pairs
// tile 2i with tile 2i+1.
func validateRoles(name string, roles []string) error {
	if !slices.Contains(roles, RoleAccess) && !slices.Contains(roles, RoleExecute) {
		return nil
	}
	if len(roles)%2 != 0 {
		return fmt.Errorf("config %q: access/execute tiles must form pairs, got %d tiles", name, len(roles))
	}
	for i, r := range roles {
		if want := DAERole(i); r != want {
			return fmt.Errorf("config %q: tile %d must have role %q (access/execute tiles alternate, access first), got %q", name, i, want, r)
		}
	}
	return nil
}

// label names a tile def for error messages.
func (td *TileDef) label() string {
	if td.Core != nil && td.Core.Name != "" {
		return td.Core.Name
	}
	if td.Kind != "" {
		return td.Kind
	}
	return "?"
}
