package workloads

// Result-digest lock for the timing core on generated kernels.
//
// testdata/sim_digests.json holds two SHA-256s of the soc.Result JSON for 150
// generated kernels at O0 and O2 on six core shapes, over three memory
// hierarchies by rotation, with cycle skipping on and off: 3,600 runs.
// "timing" hashes the Result without the stall counters, "accounting" the
// stall counters alone, so a change to how stalls are counted moves only the
// second. The
// file was recorded from the pooled-node core of commit 14825b1; the ring
// core that replaced it must reproduce every entry, so the file — not a
// reference copy of the old core — is the oracle.
//
// Regenerate (only when a change to the timing model or the stall accounting
// is intentional, saying which half moved):
//
//	go test ./internal/workloads -run TestSimDigests -update-sim-digests

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/ir"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/testgen"
)

var updateSimDigests = flag.Bool("update-sim-digests", false,
	"rewrite testdata/sim_digests.json from the current timing core")

const (
	simDigestPath  = "testdata/sim_digests.json"
	simDigestSeeds = 150
)

// simDigestCores are the core shapes every generated kernel is timed on: the
// presets plus the corners the goldens never visit (a window smaller than a
// block, every structural hazard at once, unequal clocks, a live-DBB cap).
func simDigestCores() []struct {
	name  string
	tiles []config.CoreConfig
} {
	ooo, ino := config.OutOfOrderCore(), config.InOrderCore()
	slow := ino
	slow.ClockMHz = 700
	win3 := ooo
	win3.WindowSize, win3.LSQSize = 3, 2
	hazards := ooo
	hazards.Branch, hazards.PerfectAliasSpec = config.BranchDynamic, false
	hazards.FunctionalUnits = map[string]int{"int_alu": 1, "fp_mul": 1, "mem": 1}
	return []struct {
		name  string
		tiles []config.CoreConfig
	}{
		{"ooo", []config.CoreConfig{ooo}},
		{"inorder+700MHz", []config.CoreConfig{ino, slow}},
		{"xeon", []config.CoreConfig{config.XeonLikeCore()}},
		{"win3", []config.CoreConfig{win3}},
		{"hazards", []config.CoreConfig{hazards}},
		{"accel2", []config.CoreConfig{config.AcceleratorTileCore(2)}},
	}
}

func simDigestMems() []config.MemConfig {
	banked := config.TableIIMem()
	banked.DRAM = config.BankedDRAMDefaults(banked.DRAM.BandwidthGBs)
	return []config.MemConfig{config.TableIIMem(), config.TableIMem(), banked}
}

// simDigest is what one run must reproduce exactly.
type simDigest struct {
	Timing     string `json:"timing"`
	Accounting string `json:"accounting"`
}

func hashJSON(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// simDigestsOf times one generated kernel on every core shape, skipping on
// and off, and returns key -> digest for its 12 runs.
func simDigestsOf(seed int64, level string) (map[string]simDigest, error) {
	_, f, tr, err := testgen.Run(testgen.Source(seed), ir.OptConfig{Level: level})
	if err != nil {
		return nil, err
	}
	g, mems := ddg.Build(f), simDigestMems()
	out := map[string]simDigest{}
	for ci, c := range simDigestCores() {
		for _, mode := range []string{"skip", "noskip"} {
			// Every tile replays the one traced tile; cores only read it.
			specs := make([]soc.TileSpec, len(c.tiles))
			for i, cfg := range c.tiles {
				specs[i] = soc.TileSpec{Cfg: cfg, Graph: g, TT: tr.Tiles[0]}
			}
			sys, err := soc.New(c.name, specs, mems[(int(seed)+ci)%len(mems)], nil)
			if err != nil {
				return nil, err
			}
			sys.DisableCycleSkipping = mode == "noskip"
			key := fmt.Sprintf("seed%03d@%s/%s/%s", seed, level, c.name, mode)
			if err := sys.Run(context.Background(), 0); err != nil {
				return nil, fmt.Errorf("%s: %w", key, err)
			}
			res := sys.Result()
			var stalls [][4]int64
			for i := range res.CoreStats {
				cs := &res.CoreStats[i]
				stalls = append(stalls, [4]int64{cs.MAOStalls, cs.FUStalls, cs.WindowStalls, cs.CommStalls})
				cs.MAOStalls, cs.FUStalls, cs.WindowStalls, cs.CommStalls = 0, 0, 0, 0
			}
			out[key] = simDigest{Timing: hashJSON(res), Accounting: hashJSON(stalls)}
		}
	}
	return out, nil
}

func TestSimDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("3,600 simulations")
	}
	if *updateSimDigests {
		all := map[string]simDigest{}
		for seed := int64(1); seed <= simDigestSeeds; seed++ {
			for _, level := range []string{"O0", "O2"} {
				got, err := simDigestsOf(seed, level)
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range got {
					all[k] = v
				}
			}
		}
		data, err := json.MarshalIndent(all, "", " ") // map keys marshal sorted
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(simDigestPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d digests)", simDigestPath, len(all))
		return
	}
	raw, err := os.ReadFile(simDigestPath)
	if err != nil {
		t.Fatalf("missing sim digests (regenerate with -update-sim-digests): %v", err)
	}
	var want map[string]simDigest
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if n := simDigestSeeds * 2 * len(simDigestCores()) * 2; len(want) != n {
		t.Fatalf("digest file has %d entries, matrix has %d (regenerate with -update-sim-digests)", len(want), n)
	}
	for seed := int64(1); seed <= simDigestSeeds; seed++ {
		for _, level := range []string{"O0", "O2"} {
			t.Run(fmt.Sprintf("seed%03d@%s", seed, level), func(t *testing.T) {
				t.Parallel()
				got, err := simDigestsOf(seed, level)
				if err != nil {
					t.Fatal(err)
				}
				for k, v := range got {
					if want[k] != v {
						t.Errorf("%s: Result diverged from the recorded core: want %+v, got %+v", k, want[k], v)
					}
				}
			})
		}
	}
}
