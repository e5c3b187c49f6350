package config_test

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	. "mosaicsim/internal/config"
	"mosaicsim/internal/soc"
)

// validate is what every driver does with a config before simulating it:
// resolve it. Resolution runs SystemConfig.Validate and then checks what only
// the resolved form shows (tile kinds, merged cores, NoC placement), so these
// tests sit outside the package to reach it.
func validate(sc *SystemConfig) error {
	_, err := soc.Resolve(sc, false)
	return err
}

func TestPresetsValidate(t *testing.T) {
	systems := []*SystemConfig{
		XeonSystem(1),
		XeonSystem(8),
		{Name: "dae", Cores: []CoreSpec{{Core: InOrderCore(), Count: 8}}, Mem: TableIIMem()},
		{Name: "ooo", Cores: []CoreSpec{{Core: OutOfOrderCore(), Count: 1}}, Mem: TableIIMem()},
		{Name: "accel", Cores: []CoreSpec{{Core: AcceleratorTileCore(8), Count: 1}}, Mem: TableIIMem()},
	}
	for _, sc := range systems {
		if err := validate(sc); err != nil {
			t.Errorf("%s: %v", sc.Name, err)
		}
	}
}

func TestTableIIParameters(t *testing.T) {
	ooo := OutOfOrderCore()
	if ooo.IssueWidth != 4 || ooo.WindowSize != 128 || ooo.LSQSize != 128 {
		t.Errorf("OoO core does not match Table II: %+v", ooo)
	}
	if ooo.ClockMHz != 2000 || ooo.AreaMM2 != 8.44 {
		t.Errorf("OoO clock/area mismatch: %+v", ooo)
	}
	ino := InOrderCore()
	if ino.IssueWidth != 1 || ino.AreaMM2 != 1.01 {
		t.Errorf("InO core does not match Table II: %+v", ino)
	}
	// Equal-area comparison from §VII-A: 8 InO cores ≈ 1 OoO core.
	if ratio := ooo.AreaMM2 / ino.AreaMM2; ratio < 7.5 || ratio > 9 {
		t.Errorf("area ratio = %.2f, want ~8.4", ratio)
	}
	mem := TableIIMem()
	if mem.L1.SizeKB != 32 || mem.L2.SizeKB != 2048 {
		t.Errorf("Table II cache sizes wrong: %+v", mem)
	}
	if mem.DRAM.BandwidthGBs != 24 || mem.DRAM.MinLatency != 200 {
		t.Errorf("Table II DRAM wrong: %+v", mem.DRAM)
	}
}

func TestTableIParameters(t *testing.T) {
	sc := XeonSystem(8)
	if sc.Mem.L1.SizeKB != 32 || sc.Mem.L1.Assoc != 8 {
		t.Errorf("Table I L1 wrong: %+v", sc.Mem.L1)
	}
	if sc.Mem.L2.SizeKB != 2048 || sc.Mem.L2.Assoc != 8 {
		t.Errorf("Table I L2 wrong: %+v", sc.Mem.L2)
	}
	if sc.Mem.LLC.SizeKB != 20480 || sc.Mem.LLC.Assoc != 20 {
		t.Errorf("Table I LLC wrong: %+v", sc.Mem.LLC)
	}
	if sc.Mem.DRAM.BandwidthGBs != 68 {
		t.Errorf("Table I DRAM bandwidth wrong: %+v", sc.Mem.DRAM)
	}
	if sc.Tiles[0].Core.ClockMHz != 3200 {
		t.Errorf("Table I frequency wrong: %d", sc.Tiles[0].Core.ClockMHz)
	}
}

func TestLatencyResolution(t *testing.T) {
	c := OutOfOrderCore()
	if c.Latency(ClassIntALU) != 1 {
		t.Errorf("default int_alu latency = %d", c.Latency(ClassIntALU))
	}
	c.Latencies = map[string]int64{"fp_mul": 7}
	if c.Latency(ClassFPMul) != 7 {
		t.Errorf("override fp_mul latency = %d", c.Latency(ClassFPMul))
	}
	if c.Latency(ClassFPDiv) != DefaultLatencies[ClassFPDiv] {
		t.Error("non-overridden class must fall back to default")
	}
}

func TestFULimit(t *testing.T) {
	c := InOrderCore()
	if c.FULimit(ClassFPMul) != 0 {
		t.Error("unset FU limit must be unlimited (0)")
	}
	c.FunctionalUnits = map[string]int{"fp_mul": 2}
	if c.FULimit(ClassFPMul) != 2 {
		t.Errorf("FU limit = %d, want 2", c.FULimit(ClassFPMul))
	}
}

func TestJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sys.json")
	sc := XeonSystem(4)
	if err := sc.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Name != sc.Name || len(got.Tiles) != 1 || got.Tiles[0].Count != 4 {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if got.Mem.LLC == nil || got.Mem.LLC.SizeKB != sc.Mem.LLC.SizeKB {
		t.Errorf("LLC lost in round trip: %+v", got.Mem.LLC)
	}
	if err := validate(got); err != nil {
		t.Errorf("loaded config invalid: %v", err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := &SystemConfig{Name: "bad", Cores: []CoreSpec{{Core: XeonLikeCore()}}, Mem: TableIMem()}
	if validate(bad) == nil {
		t.Error("zero-count core accepted")
	}
	bad2 := XeonSystem(1)
	bad2.Mem.L1.Assoc = 7 // 512 lines not divisible by 7
	if validate(bad2) == nil {
		t.Error("non-integral sets accepted")
	}
	bad3 := &SystemConfig{Name: "empty"}
	if validate(bad3) == nil {
		t.Error("empty system accepted")
	}
	bad4 := XeonSystem(1)
	bad4.Tiles[0].Core.IssueWidth = 0
	if validate(bad4) == nil {
		t.Error("zero issue width accepted")
	}
}

// TestValidateRejectsUnknownClassNames: a per-class map key that names no
// instruction class used to be ignored silently (the default applied). It is
// a typed error now, in every form a core config can be declared in.
func TestValidateRejectsUnknownClassNames(t *testing.T) {
	legacy := &SystemConfig{Name: "l", Cores: []CoreSpec{{Core: XeonLikeCore(), Count: 1}}, Mem: TableIMem()}
	legacy.Cores[0].Core.Latencies = map[string]int64{"fp_mul": 5, "fp_mull": 7}
	explicit := OutOfOrderCore()
	explicit.FunctionalUnits = map[string]int{"alu": 2}
	tiles := func(td TileDef) *SystemConfig {
		return &SystemConfig{Name: "t", Tiles: []TileDef{td}, Mem: TableIIMem()}
	}
	for name, tc := range map[string]struct {
		sc           *SystemConfig
		field, class string
	}{
		"legacy cores":   {legacy, "latencies", "fp_mull"},
		"explicit core":  {tiles(TileDef{Core: &explicit}), "functional_units", "alu"},
		"tile overrides": {tiles(TileDef{Kind: "ooo", Overrides: json.RawMessage(`{"latencies": {"branchy": 2}}`)}), "latencies", "branchy"},
	} {
		err := validate(tc.sc)
		var uce *UnknownClassError
		if !errors.As(err, &uce) {
			t.Errorf("%s: Validate = %v, want an UnknownClassError", name, err)
			continue
		}
		if uce.Field != tc.field || uce.Name != tc.class {
			t.Errorf("%s: error names %s %q, want %s %q", name, uce.Field, uce.Name, tc.field, tc.class)
		}
		for c := InstrClass(0); c < NumClasses; c++ {
			if !strings.Contains(err.Error(), c.String()) {
				t.Errorf("%s: error does not list valid class %q: %v", name, c, err)
			}
		}
	}
	ok := XeonSystem(1)
	ok.Tiles[0].Core.Latencies = map[string]int64{"fp_mul": 5}
	ok.Tiles[0].Core.FunctionalUnits = map[string]int{"mem": 2}
	if err := validate(ok); err != nil {
		t.Errorf("valid class names rejected: %v", err)
	}
}

// TestValidateRejectsUnknownBranchPredictor: a branch value that names no
// predictor (a typo like "dynamc") used to simulate silently as "none". It is
// an error with a suggestion now, in every form a core config can be declared
// in; the empty value and the four real names stay accepted.
func TestValidateRejectsUnknownBranchPredictor(t *testing.T) {
	legacy := &SystemConfig{Name: "l", Cores: []CoreSpec{{Core: XeonLikeCore(), Count: 1}}, Mem: TableIMem()}
	legacy.Cores[0].Core.Branch = "dynamc"
	explicit := OutOfOrderCore()
	explicit.Branch = "statik"
	tiles := func(td TileDef) *SystemConfig {
		return &SystemConfig{Name: "t", Tiles: []TileDef{td}, Mem: TableIIMem()}
	}
	for name, tc := range map[string]struct {
		sc   *SystemConfig
		want []string
	}{
		"legacy cores":   {legacy, []string{`unknown branch predictor "dynamc"`, `did you mean "dynamic"?`}},
		"explicit core":  {tiles(TileDef{Core: &explicit}), []string{"tile 0", `"statik"`, `did you mean "static"?`}},
		"tile overrides": {tiles(TileDef{Kind: "ooo", Overrides: json.RawMessage(`{"branch": "perfekt"}`)}), []string{"tile 0", `did you mean "perfect"?`}},
		"nothing close":  {tiles(TileDef{Kind: "ooo", Overrides: json.RawMessage(`{"branch": "tournament"}`)}), []string{`"tournament"`, "valid: none, static, dynamic, perfect"}},
	} {
		err := validate(tc.sc)
		if err == nil {
			t.Errorf("%s: Validate accepted the config", name)
			continue
		}
		for _, w := range tc.want {
			if !strings.Contains(err.Error(), w) {
				t.Errorf("%s: error %q does not contain %q", name, err, w)
			}
		}
	}
	for _, b := range []BranchPredictor{"", BranchNone, BranchStatic, BranchDynamic, BranchPerfect} {
		ok := XeonSystem(1)
		ok.Tiles[0].Core.Branch = b
		if err := validate(ok); err != nil {
			t.Errorf("branch %q rejected: %v", b, err)
		}
		if err := validate(tiles(TileDef{Kind: "ooo", Overrides: json.RawMessage(`{"branch": "` + string(b) + `"}`)})); err != nil {
			t.Errorf("override branch %q rejected: %v", b, err)
		}
	}
}

// TestValidateBoundsSizeKnobs: every knob that sizes an allocation is bounded,
// in every form a core config can be declared in. Before, window_size 2^62
// passed Validate and killed the process in core.New's makeslice; size_kb 2^42
// did the same in mem.NewCache, and a 48-byte line silently modelled 32.
func TestValidateBoundsSizeKnobs(t *testing.T) {
	legacy := func(mut func(*CoreConfig)) *SystemConfig {
		sc := &SystemConfig{Name: "l", Cores: []CoreSpec{{Core: XeonLikeCore(), Count: 1}}, Mem: TableIMem()}
		mut(&sc.Cores[0].Core)
		return sc
	}
	tiles := func(td TileDef) *SystemConfig {
		return &SystemConfig{Name: "t", Tiles: []TileDef{td}, Mem: TableIIMem()}
	}
	mem := func(mut func(*MemConfig)) *SystemConfig {
		sc := XeonSystem(1)
		mut(&sc.Mem)
		return sc
	}
	explicit := OutOfOrderCore()
	explicit.LSQSize = MaxEntries + 1
	for name, tc := range map[string]struct {
		sc          *SystemConfig
		field, want string
	}{
		"legacy window":     {legacy(func(c *CoreConfig) { c.WindowSize = 1 << 62 }), "window_size", "at most 65536"},
		"legacy issue":      {legacy(func(c *CoreConfig) { c.IssueWidth = 1 << 40 }), "issue_width", "at most 65536"},
		"explicit core lsq": {tiles(TileDef{Core: &explicit}), "lsq_size", "at most 65536"},
		"override messages": {tiles(TileDef{Kind: "ooo", Overrides: json.RawMessage(`{"max_messages": 1099511627776}`)}), "max_messages", "at most 65536"},
		"override window":   {tiles(TileDef{Kind: "ooo", Overrides: json.RawMessage(`{"window_size": 4611686018427387904}`)}), "window_size", "at most 65536"},
		// A non-positive size used to pass when it arrived in overrides: the
		// core never issued and the run span to its cycle limit.
		"override window 0":  {tiles(TileDef{Kind: "ooo", Overrides: json.RawMessage(`{"window_size": 0}`)}), "window_size", "at least 1"},
		"override window -4": {tiles(TileDef{Kind: "ooo", Overrides: json.RawMessage(`{"window_size": -4}`)}), "window_size", "at least 1"},
		"override issue 0":   {tiles(TileDef{Kind: "inorder", Overrides: json.RawMessage(`{"issue_width": 0}`)}), "issue_width", "at least 1"},
		"override issue -3":  {tiles(TileDef{Kind: "ooo", Overrides: json.RawMessage(`{"issue_width": -3}`)}), "issue_width", "at least 1"},
		"override lsq -1":    {tiles(TileDef{Kind: "ooo", Overrides: json.RawMessage(`{"lsq_size": -1}`)}), "lsq_size", "at least 1"},
		"legacy lsq 0":       {legacy(func(c *CoreConfig) { c.LSQSize = 0 }), "lsq_size", "at least 1"},
		"cache size":         {mem(func(m *MemConfig) { m.L2.SizeKB = 1 << 42 }), "size_kb", "at most 1048576"},
		"cache assoc":        {mem(func(m *MemConfig) { m.LLC.Assoc = 1 << 20 }), "assoc", "at most 65536"},
		"cache size max+1":   {mem(func(m *MemConfig) { m.L1.SizeKB = MaxCacheKB + 1 }), "size_kb", "at most 1048576"},
		"cache assoc max+1":  {mem(func(m *MemConfig) { m.L1.Assoc = MaxEntries + 1 }), "assoc", "at most 65536"},
		"cache mshrs":        {mem(func(m *MemConfig) { m.L1.MSHRs = 1 << 31 }), "mshrs", "at most 65536"},
		"cache prefetch":     {mem(func(m *MemConfig) { m.L1.PrefetchDegree = 1 << 40 }), "prefetch_degree", "at most 65536"},
		"48-byte line":       {mem(func(m *MemConfig) { m.L1.LineBytes = 48 }), "line_bytes", "a power of two"},
		"dram banks":         {mem(func(m *MemConfig) { m.DRAM.Banks = 1 << 31 }), "banks", "at most 1024"},
		// The directory's sharer mask has 64 bits: tile 64 used to drop out
		// of it and keep a stale copy.
		"directory 65 tiles": {&SystemConfig{Name: "dir", Tiles: []TileDef{{Kind: "ooo", Count: 65}},
			Mem: MemConfig{L1: TableIIMem().L1, DRAM: TableIIMem().DRAM, Directory: true}}, "tiles", "at most 64"},
		// Each knob within its bound, the system as a whole beyond the host.
		"4096 tiles x 1 GiB": {&SystemConfig{Name: "big", Tiles: []TileDef{{Kind: "ooo", Count: MaxTiles}},
			Mem: MemConfig{L1: CacheConfig{Name: "L1", SizeKB: MaxCacheKB, LineBytes: 64, Assoc: 8}, DRAM: TableIIMem().DRAM}},
			"size_kb", "at most 16777216 over all 4096 tiles' caches and the LLC"},
	} {
		err := validate(tc.sc)
		var se *SizeError
		if !errors.As(err, &se) {
			t.Errorf("%s: Validate = %v, want a SizeError", name, err)
			continue
		}
		if se.Field != tc.field || se.Want != tc.want || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: error %q names %s / %s, want %s / %s", name, err, se.Field, se.Want, tc.field, tc.want)
		}
	}
	if err := validate(mem(func(m *MemConfig) { m.L1.SizeKB, m.L1.LineBytes = 1, 2048 })); err == nil {
		t.Error("a cache smaller than one line accepted (mem.NewCache panics on zero sets)")
	}
	atLimit := legacy(func(c *CoreConfig) { c.WindowSize, c.LSQSize, c.MaxMessages = MaxEntries, MaxEntries, MaxEntries })
	if err := validate(atLimit); err != nil {
		t.Errorf("knobs at their limits rejected: %v", err)
	}
	mesh64 := &SystemConfig{Name: "mesh64", Tiles: []TileDef{{Kind: "ooo", Count: 64}}, Mem: TableIIMem(), NoC: &NoCConfig{MeshWidth: 8, HopCycles: 4}}
	for _, sc := range []*SystemConfig{mesh64, XeonSystem(16), {Name: "full", Tiles: []TileDef{{Kind: "ooo", Count: MaxTiles}}, Mem: TableIIMem()}} {
		if err := validate(sc); err != nil {
			t.Errorf("%s: shipped cache sizes rejected: %v", sc.Name, err)
		}
	}
	if mesh64.Mem.Directory = true; validate(mesh64) != nil {
		t.Errorf("64 tiles with the directory rejected: %v", validate(mesh64))
	}
}

func TestInstrClassNames(t *testing.T) {
	seen := map[string]bool{}
	for c := InstrClass(0); c < NumClasses; c++ {
		n := c.String()
		if n == "" || seen[n] {
			t.Errorf("class %d has bad/duplicate name %q", c, n)
		}
		seen[n] = true
	}
	for c := InstrClass(0); c < NumClasses; c++ {
		if EnergyPerClassPJ[c] <= 0 {
			t.Errorf("class %s missing energy entry", c)
		}
	}
}

func TestExtensionFieldsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ext.json")
	sc := XeonSystem(4)
	sc.Mem.Directory = true
	sc.Mem.DirInvCycles = 44
	sc.NoC = &NoCConfig{MeshWidth: 2, HopCycles: 7}
	sc.Tiles[0].Core.Branch = BranchDynamic
	sc.Tiles[0].Core.DecoupledSupply = true
	sc.Tiles[0].Core.AtomicExtraLatency = 55
	if err := sc.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Mem.Directory || got.Mem.DirInvCycles != 44 {
		t.Errorf("directory fields lost: %+v", got.Mem)
	}
	if got.NoC == nil || got.NoC.MeshWidth != 2 || got.NoC.HopCycles != 7 {
		t.Errorf("NoC fields lost: %+v", got.NoC)
	}
	c := got.Tiles[0].Core
	if c.Branch != BranchDynamic || !c.DecoupledSupply || c.AtomicExtraLatency != 55 {
		t.Errorf("core extension fields lost: %+v", c)
	}
}
