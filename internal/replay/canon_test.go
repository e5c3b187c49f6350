package replay

import (
	"reflect"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/soc"
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
		canon, err := CanonJSON(topo)
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
