package replay

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/testgen"
)

// fieldClass says how StructHash treats one config.SystemConfig field.
type fieldClass int

const (
	// structural: any change must change the hash (timing sub-knobs inside
	// the field are normalised by its own canon* function).
	structural fieldClass = iota
	// normalisedAway: never affects timing, so a change must not move the hash.
	normalisedAway
	// expanded: a tile declaration; hashed through soc.Resolve, so the two
	// input spellings of the same tiles hash equal.
	expanded
)

// TestStructHashCoversEveryConfigField classifies every exported
// SystemConfig field and checks StructHash honours the class. A new config
// field fails here until it is classified, so it cannot silently replay (a
// structural knob left out of canonForm would hash equal and let a recorded
// schedule answer for a system it never simulated).
func TestStructHashCoversEveryConfigField(t *testing.T) {
	base := func() *config.SystemConfig {
		return &config.SystemConfig{
			Name:  "base",
			Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: 2}},
			Mem:   config.TableIIMem(),
			NoC:   &config.NoCConfig{MeshWidth: 2, HopCycles: 4},
		}
	}
	fields := map[string]struct {
		class  fieldClass
		mutate func(sc *config.SystemConfig)
	}{
		"Name":  {normalisedAway, func(sc *config.SystemConfig) { sc.Name = "renamed" }},
		"Cores": {expanded, func(sc *config.SystemConfig) { sc.Cores[0].Count = 3 }},
		"Tiles": {expanded, func(sc *config.SystemConfig) {
			sc.Cores = nil
			sc.Tiles = []config.TileDef{{Kind: "ooo", Count: 3}}
		}},
		"Mem":           {structural, func(sc *config.SystemConfig) { sc.Mem.L1.SizeKB *= 2 }},
		"NoC":           {structural, func(sc *config.SystemConfig) { sc.NoC.MeshWidth = 3 }},
		"FabricLatency": {structural, func(sc *config.SystemConfig) { zero := int64(0); sc.FabricLatency = &zero }},
	}
	hash := func(sc *config.SystemConfig) uint64 {
		t.Helper()
		topo, err := soc.Resolve(sc, false)
		if err != nil {
			t.Fatal(err)
		}
		canon, err := CanonJSON(nil, topo)
		if err != nil {
			t.Fatal(err)
		}
		return StructHash(canon)
	}
	want := hash(base())

	typ := reflect.TypeOf(config.SystemConfig{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		f, ok := fields[name]
		if !ok {
			t.Errorf("config.SystemConfig.%s is not classified: decide whether StructHash must see it and add it here", name)
			continue
		}
		delete(fields, name)
		sc := base()
		f.mutate(sc)
		if got := hash(sc); (got == want) != (f.class == normalisedAway) {
			t.Errorf("%s: hash moved = %v, which contradicts its class", name, got != want)
		}
	}
	for name := range fields {
		t.Errorf("table lists %s, which config.SystemConfig no longer has", name)
	}

	decl := base()
	decl.Cores = nil
	decl.Tiles = []config.TileDef{{Kind: "ooo", Count: 2}}
	if hash(decl) != want {
		t.Error("the Cores and Tiles spellings of the same two ooo tiles hash differently")
	}
}

// The canonical form as encoding/json marshals it: the definition CanonJSON
// reproduces byte for byte. Every persisted schedule name and StructHash was
// computed from these bytes.
type canonCore struct {
	Cfg    config.CoreConfig
	EffLat [config.NumClasses]int64
}

type canonTile struct {
	Kind     string
	Role     string
	MeshSlot int
	Core     canonCore
}

type canonForm struct {
	Tiles     []canonTile
	Mem       config.MemConfig
	NoC       *config.NoCConfig
	FabricLat int64
}

func oracleCanon(t *soc.Topology) ([]byte, error) {
	cf := canonForm{Tiles: make([]canonTile, len(t.Tiles)), Mem: t.Mem, FabricLat: t.FabricLat}
	for i, rt := range t.Tiles {
		c := canonCore{Cfg: rt.Cfg}
		c.Cfg.Name, c.Cfg.MispredictPenalty, c.Cfg.AtomicExtraLatency, c.Cfg.Latencies = "", 0, 0, nil
		for cl := config.InstrClass(0); cl < config.NumClasses; cl++ {
			c.EffLat[cl] = rt.Cfg.Latency(cl)
		}
		c.EffLat[config.ClassMem] = 0
		cf.Tiles[i] = canonTile{Kind: rt.Kind, Role: rt.Role, MeshSlot: rt.MeshSlot, Core: c}
		if t.SlicedRoles {
			cf.Tiles[i].Role = ""
		}
	}
	cache := func(c config.CacheConfig) *config.CacheConfig {
		c.Name, c.LatencyCycles = "", 0
		return &c
	}
	cf.Mem.L1 = *cache(t.Mem.L1)
	if t.Mem.L2 != nil {
		cf.Mem.L2 = cache(*t.Mem.L2)
	}
	if t.Mem.LLC != nil {
		cf.Mem.LLC = cache(*t.Mem.LLC)
	}
	d := &cf.Mem.DRAM
	d.MinLatency, d.BandwidthGBs, d.EpochCycles = 0, 0, 0
	d.TCAS, d.TRCD, d.TRP, d.TBurst = 0, 0, 0, 0
	if d.Model != config.DRAMBanked {
		d.Model = config.DRAMSimple
		d.Channels, d.Banks, d.RowBytes = 0, 0, 0
	}
	cf.Mem.DirInvCycles = 0
	if t.NoC != nil {
		cf.NoC = &config.NoCConfig{MeshWidth: t.NoC.MeshWidth}
	}
	return json.Marshal(cf)
}

// checkCanon requires CanonJSON to write exactly the oracle's bytes for
// topo, or both to refuse it.
func checkCanon(t *testing.T, what string, topo *soc.Topology) {
	t.Helper()
	want, werr := oracleCanon(topo)
	got, gerr := CanonJSON([]byte("prefix"), topo)
	switch {
	case (werr == nil) != (gerr == nil):
		t.Fatalf("%s: encoding/json error %v, CanonJSON error %v", what, werr, gerr)
	case werr == nil && !bytes.Equal(got, append([]byte("prefix"), want...)):
		t.Fatalf("%s: CanonJSON differs from encoding/json:\n got %s\nwant prefix%s", what, got, want)
	}
}

// canonInputs are the resolved topologies the oracle test starts from: the
// shipped configs, the presets, every shape TestIdentityTable pins and
// testgen.Topology(1..seeds).
func canonInputs(t *testing.T, seeds int64) map[string]*soc.Topology {
	t.Helper()
	out := map[string]*soc.Topology{}
	add := func(name string, sc *config.SystemConfig, daePairs bool) {
		topo, err := soc.Resolve(sc, daePairs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = topo
	}
	paths, err := filepath.Glob("../../configs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("configs/*.json: %v, %v", paths, err)
	}
	for _, p := range paths {
		sc, err := config.Load(p)
		if err != nil {
			t.Fatal(err)
		}
		add("file:"+filepath.Base(p), sc, false)
	}
	for _, n := range config.TopologyPresets() {
		sc, err := config.TopologyPreset(n)
		if err != nil {
			t.Fatal(err)
		}
		add("preset:"+n, sc, false)
	}
	for _, n := range []int{1, 4, 16} {
		add(fmt.Sprintf("xeon-system:%d", n), config.XeonSystem(n), false)
	}
	for _, c := range []string{"ooo", "inorder", "xeon"} {
		for _, m := range []string{"tab1", "tab2"} {
			for _, shape := range []struct{ tiles, mesh int }{{1, 0}, {2, 0}, {64, 0}, {64, 8}} {
				sc, err := config.Flat("sgemm", c, m, shape.tiles)
				if err != nil {
					t.Fatal(err)
				}
				if shape.mesh > 0 {
					sc.NoC = &config.NoCConfig{MeshWidth: shape.mesh, HopCycles: 4}
				}
				add(fmt.Sprintf("flat:%s/%s/%d/mesh%d", c, m, shape.tiles, shape.mesh), sc, false)
			}
		}
	}
	for _, n := range []int{2, 4} {
		add(fmt.Sprintf("slicing-dae:%d", n), &config.SystemConfig{
			Cores: []config.CoreSpec{{Core: config.OutOfOrderCore(), Count: n}}, Mem: config.TableIIMem()}, true)
	}
	for seed := int64(1); seed <= seeds; seed++ {
		add(fmt.Sprintf("testgen:%d", seed), testgen.Topology(seed), false)
	}
	return out
}

// TestCanonMatchesEncodingJSON holds CanonJSON to the encoding/json oracle
// on every input of canonInputs, and on a copy of each with one field of the
// topology changed — every field of the tile, CoreConfig, MemConfig,
// CacheConfig, DRAMConfig and NoCConfig in turn, found by reflection. A
// field added to one of those types is written by the oracle and not by
// CanonJSON until someone adds it there, so it fails here first.
func TestCanonMatchesEncodingJSON(t *testing.T) {
	seeds := int64(500)
	if testing.Short() {
		seeds = 100
	}
	inputs := canonInputs(t, seeds)
	mutated := map[string]bool{}
	for name, base := range inputs {
		checkCanon(t, name, base)
		forEachField(reflect.ValueOf(base).Elem(), nil, func(path []int, owner reflect.Type, field int) {
			fname := owner.Name() + "." + owner.Field(field).Name
			mutated[fname] = true
			topo := deepCopy(base)
			mutate(at(reflect.ValueOf(topo).Elem(), path))
			checkCanon(t, fmt.Sprintf("%s with %s changed", name, fname), topo)
		})
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[soc.ResolvedTile](), reflect.TypeFor[config.CoreConfig](),
		reflect.TypeFor[config.MemConfig](), reflect.TypeFor[config.CacheConfig](), reflect.TypeFor[config.DRAMConfig](),
		reflect.TypeFor[config.NoCConfig](), reflect.TypeFor[soc.Topology]()} {
		for i := 0; i < typ.NumField(); i++ {
			if name := typ.Name() + "." + typ.Field(i).Name; !mutated[name] {
				t.Errorf("%s was never changed: no input reaches it", name)
			}
		}
	}

	// Floats take encoding/json's two formats and its refusals.
	topo := deepCopy(inputs["preset:core-accel"])
	for _, a := range []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 123456789.125, 1e20, 1e21, 5e-324, -2.5, math.NaN(), math.Inf(1)} {
		topo.Tiles[0].Cfg.AreaMM2 = a
		checkCanon(t, fmt.Sprintf("area %v", a), topo)
	}
	// Strings take its escapes.
	for _, s := range []string{"", "plain", "q\"b\\s/", "<&>", "\x00\x01\b\f\n\r\t\x1f\x7f", "é✓", "\u2028\u2029", "bad\xff\xfe utf8\xe2\x82"} {
		topo.Tiles[0].Kind, topo.Tiles[1].Role, topo.Tiles[0].Cfg.Branch = s, s, config.BranchPredictor(s)
		topo.Tiles[0].Cfg.FunctionalUnits = map[string]int{s: 1, "b": 2, "a": 3}
		checkCanon(t, fmt.Sprintf("string %q", s), topo)
	}
}

// forEachField calls f with the path to every struct field reachable from v
// — into structs, through non-nil pointers and into a slice's first element —
// and the field's owning type and index.
func forEachField(v reflect.Value, path []int, f func(path []int, owner reflect.Type, field int)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			p := append(slices.Clone(path), i)
			f(p, v.Type(), i)
			forEachField(v.Field(i), p, f)
		}
	case reflect.Pointer, reflect.Slice:
		if v.Kind() == reflect.Pointer && !v.IsNil() {
			forEachField(v.Elem(), append(slices.Clone(path), 0), f)
		} else if v.Kind() == reflect.Slice && v.Len() > 0 {
			forEachField(v.Index(0), append(slices.Clone(path), 0), f)
		}
	}
}

// at follows a forEachField path from v.
func at(v reflect.Value, path []int) reflect.Value {
	for _, i := range path {
		switch v.Kind() {
		case reflect.Struct:
			v = v.Field(i)
		case reflect.Pointer:
			v = v.Elem()
		case reflect.Slice:
			v = v.Index(i)
		}
	}
	return v
}

// mutate changes v to some other value of its type; a struct is left to the
// mutations of its own fields.
func mutate(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 3)
	case reflect.Float64:
		v.SetFloat(v.Float()*3.7 + 1.25)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "<é\"")
	case reflect.Map:
		if v.Len() > 0 {
			v.SetZero()
			return
		}
		m := reflect.MakeMap(v.Type())
		for i, k := range []string{"mem", "fp_mul", "int_alu"} {
			m.SetMapIndex(reflect.ValueOf(k), reflect.ValueOf(i+2).Convert(v.Type().Elem()))
		}
		v.Set(m)
	case reflect.Pointer:
		if v.IsNil() {
			v.Set(reflect.New(v.Type().Elem()))
		} else {
			v.SetZero()
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 0, 0))
	}
}

// deepCopy copies a topology so that a mutation shares nothing with it.
func deepCopy(t *soc.Topology) *soc.Topology {
	out := new(soc.Topology)
	copyValue(reflect.ValueOf(out).Elem(), reflect.ValueOf(t).Elem())
	return out
}

func copyValue(dst, src reflect.Value) {
	switch src.Kind() {
	case reflect.Struct:
		for i := 0; i < src.NumField(); i++ {
			copyValue(dst.Field(i), src.Field(i))
		}
	case reflect.Pointer:
		if !src.IsNil() {
			dst.Set(reflect.New(src.Type().Elem()))
			copyValue(dst.Elem(), src.Elem())
		}
	case reflect.Slice:
		if !src.IsNil() {
			dst.Set(reflect.MakeSlice(src.Type(), src.Len(), src.Len()))
			for i := 0; i < src.Len(); i++ {
				copyValue(dst.Index(i), src.Index(i))
			}
		}
	case reflect.Map:
		if !src.IsNil() {
			dst.Set(reflect.MakeMapWithSize(src.Type(), src.Len()))
			for it := src.MapRange(); it.Next(); {
				dst.SetMapIndex(it.Key(), it.Value())
			}
		}
	default:
		dst.Set(src)
	}
}

// FuzzCanonJSON turns topology-file bytes into a resolved topology and holds
// CanonJSON to the encoding/json oracle on it: the same bytes, or both
// refuse.
func FuzzCanonJSON(f *testing.F) {
	paths, err := filepath.Glob("../../configs/*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("configs/*.json: %v, %v", paths, err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, daePairs bool) {
		sc, err := config.Parse(data)
		if err != nil {
			return
		}
		topo, err := soc.Resolve(sc, daePairs)
		if err != nil {
			return
		}
		checkCanon(t, "fuzzed topology", topo)
	})
}

// TestCanonNeedsNoEncodingJSON keeps encoding/json out of the package: a
// replay hit writes its canonical form, hashes it and classifies it without
// reflection.
func TestCanonNeedsNoEncodingJSON(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range f.Imports {
			if imp := strings.Trim(spec.Path.Value, `"`); imp == "encoding/json" || imp == "reflect" {
				t.Errorf("%s imports %s", path, imp)
			}
		}
	}
}
