package ir

import (
	"fmt"
	"hash/fnv"
	"strings"
)

// OptConfig selects which optimization passes run over a freshly built module.
// The zero value is O0: no passes, bit-identical to the unoptimized build.
//
// A config is resolved to a concrete pass list either from a named level
// (O0/O2) or from an explicit Passes list, which overrides the level. The
// resolved list — not the raw fields — is the canonical identity of the
// config: Hash is computed over it, so `Level:"O0"`, `Level:""`, and an empty
// explicit list all alias, while any two configs that would run a different
// pass sequence (or the same sequence with a different unroll factor) never
// collide. sim.KeyFor folds Hash into SrcHash, which is what keeps artifact
// cache entries and recorded replay schedules for different opt levels
// distinct structures.
type OptConfig struct {
	// Level is a named optimization level: "O0" (or "", the default) or
	// "O2".
	Level string
	// Passes is an explicit ordered pass list (names from PassNames).
	// When non-empty it overrides Level.
	Passes []string
	// Unroll is the loop-unrolling factor used by the "unroll" pass.
	// 0 selects the default factor (4); 1 disables unrolling; values
	// above MaxUnroll are rejected.
	Unroll int
}

// DefaultUnroll is the loop-unrolling factor used when OptConfig.Unroll is 0.
const DefaultUnroll = 4

// MaxUnroll bounds the accepted loop-unrolling factor.
const MaxUnroll = 16

// PassNames lists the implemented pass names in canonical order.
var PassNames = []string{"cse", "strength", "unroll"}

// levelPasses maps each named level to its deterministic pass ordering.
// O2 re-runs cse after unrolling so the cloned iterations share what they
// compute alike.
var levelPasses = map[string][]string{
	"O0": nil,
	"O2": {"strength", "cse", "unroll", "cse"},
}

// ParseOptConfig builds an OptConfig from CLI-style inputs: level is "0" or
// "2" (with or without the "O" prefix; empty means O0), passes is an optional
// comma-separated explicit pass list overriding the level, and unroll is the
// loop-unrolling factor (0 = default). The returned config is validated.
func ParseOptConfig(level, passes string, unroll int) (OptConfig, error) {
	cfg := OptConfig{Unroll: unroll}
	switch l := strings.ToUpper(strings.TrimSpace(level)); l {
	case "", "0", "O0":
		cfg.Level = "O0"
	case "2", "O2":
		cfg.Level = "O2"
	default:
		return OptConfig{}, fmt.Errorf("ir: unknown opt level %q (have O0, O2)", level)
	}
	if s := strings.TrimSpace(passes); s != "" {
		for _, name := range strings.Split(s, ",") {
			cfg.Passes = append(cfg.Passes, strings.TrimSpace(name))
		}
	}
	if _, err := cfg.PassList(); err != nil {
		return OptConfig{}, err
	}
	return cfg, nil
}

// PassList resolves the config to its concrete ordered pass-name list,
// validating pass names, the level, and the unroll factor.
func (c OptConfig) PassList() ([]string, error) {
	if c.Unroll < 0 || c.Unroll > MaxUnroll {
		return nil, fmt.Errorf("ir: unroll factor %d out of range [0, %d]", c.Unroll, MaxUnroll)
	}
	if len(c.Passes) > 0 {
		for _, name := range c.Passes {
			if !knownPass(name) {
				return nil, fmt.Errorf("ir: unknown pass %q (have %s)", name, strings.Join(PassNames, ", "))
			}
		}
		return c.Passes, nil
	}
	level := c.Level
	if level == "" {
		level = "O0"
	}
	passes, ok := levelPasses[level]
	if !ok {
		return nil, fmt.Errorf("ir: unknown opt level %q (have O0, O2)", c.Level)
	}
	return passes, nil
}

func knownPass(name string) bool {
	for _, p := range PassNames {
		if p == name {
			return true
		}
	}
	return false
}

// UnrollFactor returns the effective loop-unrolling factor.
func (c OptConfig) UnrollFactor() int {
	if c.Unroll == 0 {
		return DefaultUnroll
	}
	return c.Unroll
}

// IsDefault reports whether the config is the zero O0 config (no passes, no
// explicit fields set).
func (c OptConfig) IsDefault() bool {
	return (c.Level == "" || c.Level == "O0") && len(c.Passes) == 0 && c.Unroll == 0
}

// Hash returns the canonical 64-bit identity of the config: an FNV-1a hash
// over the resolved pass list, with the effective unroll factor appended only
// when the "unroll" pass is in the list (a factor attached to a config that
// never unrolls does not change what runs, so it must not change the hash).
// Invalid configs hash over their raw fields; they fail later at compile.
func (c OptConfig) Hash() uint64 {
	h := fnv.New64a()
	passes, err := c.PassList()
	if err != nil {
		fmt.Fprintf(h, "invalid|%s|%s|%d", c.Level, strings.Join(c.Passes, ","), c.Unroll)
		return h.Sum64()
	}
	for _, name := range passes {
		h.Write([]byte(name))
		h.Write([]byte{0})
		if name == "unroll" {
			fmt.Fprintf(h, "x%d", c.UnrollFactor())
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// String renders the config for CLI headers: the level name (or "custom" for
// an explicit pass list) followed by the resolved pass sequence, e.g.
// "O2 [strength cse unroll:4 cse]".
func (c OptConfig) String() string {
	passes, err := c.PassList()
	if err != nil {
		return "invalid opt config: " + err.Error()
	}
	if len(passes) == 0 {
		return "O0"
	}
	name := c.Level
	if len(c.Passes) > 0 {
		name = "custom"
	}
	parts := make([]string, len(passes))
	for i, p := range passes {
		if p == "unroll" {
			p = fmt.Sprintf("unroll:%d", c.UnrollFactor())
		}
		parts[i] = p
	}
	return fmt.Sprintf("%s [%s]", name, strings.Join(parts, " "))
}
