package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"mosaicsim/internal/config"
	"mosaicsim/internal/core"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/soc"
	"mosaicsim/internal/store"
	"mosaicsim/internal/trace"
	"mosaicsim/internal/workloads"
)

// ImportedCount reports how many traces are staged for adoption.
func (c *Cache) ImportedCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.imported)
}

// TestExportImportRoundTrip is the artifact-index determinism contract: a
// cache's traces and recorded schedules, exported as blobs and imported
// into a fresh cache (a restarted daemon, or a fleet worker's warm start),
// must answer the same submission with a byte-identical report — the
// imported trace adopted without re-tracing, the imported schedule replayed
// without re-simulating.
func TestExportImportRoundTrip(t *testing.T) {
	w := spinWorkload("persist-rt", 2_000)
	cfg := oneTileConfig("persist-rt-cfg")
	run := func(c *Cache) ([]byte, *Session) {
		s, err := NewSession(Options{Workload: w, Config: cfg, Replay: true, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b, s
	}

	c1 := NewCache()
	want, _ := run(c1)
	if c1.ReplayCounters().Recorded != 1 {
		t.Fatalf("recorded = %d, want 1", c1.ReplayCounters().Recorded)
	}

	blobs := map[string][]byte{}
	if err := c1.ExportArtifacts(func(name string, data []byte) error {
		if _, dup := blobs[name]; dup {
			t.Errorf("duplicate blob name %q", name)
		}
		blobs[name] = append([]byte(nil), data...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 2 {
		t.Fatalf("exported %d blobs, want 2 (one trace, one schedule)", len(blobs))
	}

	// Export is deterministic: a second pass produces the same names and
	// bytes (the store relies on this for write-if-absent).
	if err := c1.ExportArtifacts(func(name string, data []byte) error {
		prev, ok := blobs[name]
		if !ok {
			t.Errorf("second export produced new name %q", name)
		} else if !reflect.DeepEqual(prev, data) {
			t.Errorf("blob %q bytes differ between exports", name)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	c2 := NewCache()
	for name, data := range blobs {
		if err := c2.ImportArtifact(name, data); err != nil {
			t.Fatalf("import %s: %v", name, err)
		}
	}
	if c2.ImportedCount() != 1 {
		t.Fatalf("staged traces = %d, want 1", c2.ImportedCount())
	}

	got, s2 := run(c2)
	if string(got) != string(want) {
		t.Errorf("report after import differs:\n got %s\nwant %s", got, want)
	}
	// The run must have been answered from the imported schedule, not
	// re-simulated, and imports must not count as newly recorded.
	if !s2.Replay().Replayed {
		t.Errorf("run after import was not replayed (reason %q)", s2.Replay().Reason)
	}
	rc := c2.ReplayCounters()
	if rc.Recorded != 0 {
		t.Errorf("imported schedule counted as recorded (%d)", rc.Recorded)
	}
	if rc.Hits != 1 {
		t.Errorf("replay hits = %d, want 1", rc.Hits)
	}
}

// asOlderBuild frames body under the blob header hdr as builds before payload
// checksums wrote it: without a sum, and without the stall-accounting stamp,
// which came later still.
func asOlderBuild(t testing.TB, hdr, body []byte) []byte {
	t.Helper()
	var h blobHeader
	if err := json.Unmarshal(hdr, &h); err != nil {
		t.Fatal(err)
	}
	h.Sum, h.Accounting = "", 0
	hb, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	return append(append(hb, '\n'), body...)
}

// TestImportScheduleFromOlderBuild: a schedule blob persisted by a build
// that still recorded quiet-window certificates carries five invocation
// fields this build no longer has (values below as the last such build wrote
// them for this workload). Under this build's header the decoder ignores
// them, and the payload still answers an identical leg. Framed as that build
// framed it, without the accounting stamp, the blob is refused and the leg
// re-recorded.
func TestImportScheduleFromOlderBuild(t *testing.T) {
	cfg := replayBaseConfig()
	models := accelModelsAt(4, 24)
	c1 := NewCache()
	want, out := runLeg(t, c1, cloneSys(t, cfg), models, true)
	if !out.Recorded {
		t.Fatalf("recording run did not publish a schedule (reason: %q)", out.Reason)
	}

	rewritten := 0
	var name string
	var current, older []byte
	if err := c1.ExportArtifacts(func(n string, data []byte) error {
		if strings.HasPrefix(n, "sched-") {
			hdr, body, _ := bytes.Cut(data, []byte("\n"))
			var sched map[string]json.RawMessage
			var invs []map[string]json.RawMessage
			if err := json.Unmarshal(body, &sched); err != nil {
				return err
			}
			if err := json.Unmarshal(sched["Invocations"], &invs); err != nil {
				return err
			}
			for _, inv := range invs {
				inv["Issue"] = json.RawMessage(`2063`)
				inv["Complete"] = json.RawMessage(`3455`)
				inv["Certified"] = json.RawMessage(`true`)
				inv["QuietFrom"] = json.RawMessage(`2315`)
				inv["CoreStalls"] = json.RawMessage(`[{"Core":{"MAO":0,"FU":0,"Window":0,"Comm":0},"Fabric":0}]`)
				rewritten++
			}
			var err error
			if sched["Invocations"], err = json.Marshal(invs); err != nil {
				return err
			}
			if body, err = json.Marshal(sched); err != nil {
				return err
			}
			var h blobHeader
			if err := json.Unmarshal(hdr, &h); err != nil {
				return err
			}
			name, older = n, asOlderBuild(t, hdr, body)
			current, err = blob(h, body)
			return err
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rewritten == 0 {
		t.Fatal("exported schedule holds no invocation to carry the old fields")
	}

	c2 := NewCache()
	if err := c2.ImportArtifact(name, current); err != nil {
		t.Fatal(err)
	}
	got, out := runLeg(t, c2, cloneSys(t, cfg), models, true)
	if !out.Replayed || !reflect.DeepEqual(out.Families, []string{"identical"}) {
		t.Fatalf("identical leg over the old blob: replayed=%v families=%v reason=%q", out.Replayed, out.Families, out.Reason)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay from the old blob differs from the recorded run:\n got %+v\nwant %+v", got, want)
	}
	rerecordsOlderSchedule(t, name, older, want, func(c *Cache) (soc.Result, ReplayOutcome) {
		return runLeg(t, c, cloneSys(t, cfg), models, true)
	})
}

// olderAccountingSchedule records w on cfg with replay on and returns the
// run's Result and its schedule blob, named and framed as builds before the
// stall-accounting stamp wrote it: the same header, with no stamp.
func olderAccountingSchedule(t testing.TB, w *workloads.Workload, cfg *config.SystemConfig) (res soc.Result, name string, data []byte) {
	t.Helper()
	c := NewCache()
	s, err := NewSession(Options{Workload: w, Config: cfg, Replay: true, Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if res, err = s.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := c.ExportArtifacts(func(n string, blob []byte) error {
		if !strings.HasPrefix(n, "sched-") {
			return nil
		}
		line, payload, _ := bytes.Cut(blob, []byte("\n"))
		var h blobHeader
		if err := json.Unmarshal(line, &h); err != nil {
			return err
		}
		h.Accounting = 0
		hb, err := json.Marshal(h)
		name, data = n, append(append(hb, '\n'), payload...)
		return err
	}); err != nil || data == nil {
		t.Fatalf("export: %v (schedule blob found: %v)", err, data != nil)
	}
	return res, name, data
}

// TestScheduleOfOlderAccountingIsRerecorded: a replay hit serves the recorded
// Result verbatim, stall counters included, so a schedule blob without this
// build's accounting stamp is refused and re-recorded.
func TestScheduleOfOlderAccountingIsRerecorded(t *testing.T) {
	w, cfg := spinWorkload("persist-accounting", 2_000), oneTileConfig("persist-accounting-cfg")
	want, name, old := olderAccountingSchedule(t, w, cfg)
	rerecordsOlderSchedule(t, name, old, want, func(c *Cache) (soc.Result, ReplayOutcome) {
		s, err := NewSession(Options{Workload: w, Config: cfg, Replay: true, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return got, s.Replay()
	})
}

// rerecordsOlderSchedule checks what this build does with old, a schedule
// blob named name as a build before the stall-accounting stamp framed it.
// ImportArtifact refuses it, naming the accounting. The leg (run over the
// refusing cache) then runs in full, gives want and records. The next export
// writes new bytes under the same name, which replace the blob and import.
func rerecordsOlderSchedule(t *testing.T, name string, old []byte, want soc.Result, run func(*Cache) (soc.Result, ReplayOutcome)) {
	t.Helper()
	c := NewCache()
	if err := c.ImportArtifact(name, old); err == nil || !strings.Contains(err.Error(), "stall accounting 0") {
		t.Fatalf("ImportArtifact = %v, want a stall accounting error", err)
	}
	got, out := run(c)
	if out.Replayed || !out.Recorded || !reflect.DeepEqual(got, want) {
		t.Errorf("leg after the refusal: replayed=%v recorded=%v (reason %q), result equal=%v", out.Replayed, out.Recorded, out.Reason, reflect.DeepEqual(got, want))
	}
	var again []byte
	if err := c.ExportArtifacts(func(n string, data []byte) error {
		if n == name {
			again = data
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if again == nil || bytes.Equal(again, old) {
		t.Errorf("re-export under %s: found %v, bytes unchanged %v; want new bytes under the old name", name, again != nil, bytes.Equal(again, old))
	}
	if err := NewCache().ImportArtifact(name, again); err != nil {
		t.Errorf("the re-recorded blob is refused: %v", err)
	}
}

// TestImportedTraceAdopted forces the full-simulation path (no schedule)
// and checks the imported trace is adopted by the Artifact build instead of
// re-tracing.
func TestImportedTraceAdopted(t *testing.T) {
	w := spinWorkload("persist-adopt", 2_000)
	cfg := oneTileConfig("persist-adopt-cfg")
	c1 := NewCache()
	s1, err := NewSession(Options{Workload: w, Config: cfg, Cache: c1})
	if err != nil {
		t.Fatal(err)
	}
	res1, err := s1.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var blobs []struct {
		name string
		data []byte
	}
	if err := c1.ExportArtifacts(func(name string, data []byte) error {
		blobs = append(blobs, struct {
			name string
			data []byte
		}{name, append([]byte(nil), data...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 1 {
		t.Fatalf("exported %d blobs, want 1 (replay off records no schedule)", len(blobs))
	}

	c2 := NewCache()
	for _, b := range blobs {
		if err := c2.ImportArtifact(b.name, b.data); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := NewSession(Options{Workload: w, Config: cfg, Cache: c2})
	if err != nil {
		t.Fatal(err)
	}
	art, err := s2.Artifact(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if art.Trace != c2.importedTrace(s2.Key()) {
		t.Error("artifact build re-traced instead of adopting the imported trace")
	}
	res2, err := s2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(res1)
	b2, _ := json.Marshal(res2)
	if string(b1) != string(b2) {
		t.Errorf("report over imported trace differs:\n got %s\nwant %s", b2, b1)
	}
}

// TestDamagedStoredBlobIsReplaced runs three daemon lifetimes on one store,
// each importing every blob (logging and skipping what fails), running a job
// and exporting: a stored trace blob damaged on disk, or written by a build
// whose format this one refuses, is refused and re-traced once, the drain
// replaces it, and the next lifetime imports it with no error and adopts it
// without re-tracing.
func TestDamagedStoredBlobIsReplaced(t *testing.T) {
	for name, damage := range map[string]func(data []byte) []byte{
		"a bit flipped on disk": func(data []byte) []byte { data[len(data)-1] ^= 1; return data },
		// Unsummed, as builds before checksums wrote blobs, and version 3.
		"written by a version 3 build": func(data []byte) []byte {
			hdr, payload, _ := bytes.Cut(data, []byte("\n"))
			payload[4] = 3
			return asOlderBuild(t, hdr, payload)
		},
	} {
		t.Run(name, func(t *testing.T) {
			w, cfg := spinWorkload("persist-replaced", 200), oneTileConfig("persist-replaced-cfg")
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			lifetime := func() (c *Cache, refused int, adopted bool) {
				c = NewCache()
				if err := st.Artifacts(func(name string, data []byte) error {
					if c.ImportArtifact(name, data) != nil {
						refused++
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				s, err := NewSession(Options{Workload: w, Config: cfg, Cache: c})
				if err != nil {
					t.Fatal(err)
				}
				art, err := s.Artifact(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if err := c.ExportArtifacts(func(name string, data []byte) error {
					_, err := st.PutArtifact(name, data)
					return err
				}); err != nil {
					t.Fatal(err)
				}
				return c, refused, art.Trace == c.importedTrace(s.Key())
			}
			lifetime()
			var path string
			if err := st.Artifacts(func(name string, data []byte) error {
				path = filepath.Join(st.Dir(), "artifacts", name)
				return os.WriteFile(path, damage(data), 0o644)
			}); err != nil || path == "" {
				t.Fatalf("damaging the stored blob: %v", err)
			}
			if _, refused, _ := lifetime(); refused != 1 {
				t.Fatalf("the damaged blob: %d refused, want 1", refused)
			}
			if c, refused, adopted := lifetime(); refused != 0 || c.ImportedCount() != 1 || !adopted {
				t.Errorf("after the drain: %d refused, %d staged, adopted %v; want 0, 1, true", refused, c.ImportedCount(), adopted)
			}
		})
	}
}

// TestImportArtifactRejectsCorruptBlobs: corrupt payloads are "sim: import"
// errors instead of silently installed garbage — or, for a trace whose counts
// lie, a makeslice panic that takes the daemon down at recovery.
func TestImportArtifactRejectsCorruptBlobs(t *testing.T) {
	const traceHdr = `{"kind":"trace","key":{}}` + "\n"
	var good bytes.Buffer
	tt := &trace.TileTrace{DynInstrs: 9}
	for i := 0; i < 4; i++ {
		tt.BBPath.Enter()
		tt.BBPath.Branch(uint(i & 1))
	}
	tr := &trace.Trace{Kernel: "k", Tiles: []*trace.TileTrace{tt}}
	if _, err := tr.WriteTo(&good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, blob, want string
	}{
		{"bad header", "not json\n", "bad header"},
		{"unknown kind", `{"kind":"bogus","key":{}}` + "\n", "unknown artifact kind"},
		{"garbage trace payload", traceHdr + "garbage", "trace: decoding magic"},
		{"truncated trace", traceHdr + good.String()[:good.Len()/2], "trace: decoding"},
		// A header, one tile, and a path that claims 2^62 blocks and bits.
		{"trace whose BB path count lies", traceHdr + "MSTR\x04\x00\x01\x00\x00" + strings.Repeat("\x80\x80\x80\x80\x80\x80\x80\x80\x40", 2), "trace: decoding path bits: unexpected EOF"},
		{"trace an older build wrote", traceHdr + "MSTR\x03\x00\x01\x00\x01\x01\x00\x00\x00\x00\x00", "version 3: " + trace.ErrOlderVersion.Error()},
		{"garbage schedule payload", `{"kind":"sched","key":{},"accounting":1}` + "\n{", "unexpected EOF"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache()
			err := c.ImportArtifact("x", []byte(tc.blob))
			if err == nil || !strings.HasPrefix(err.Error(), "sim: import x: ") || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("ImportArtifact = %v, want a sim: import error that says %q", err, tc.want)
			}
			if c.ImportedCount() != 0 {
				t.Error("a corrupt blob was staged")
			}
		})
	}
}

// TestScheduleSpellingOnDisk: a persisted schedule spells its topology with
// the keys it always had, so older payloads under a current header hit. A run
// that DAE slicing mapped onto role-less tiles adds one key, SlicedRoles, and
// a payload from before roles were resolved (empty roles, no such key) still
// answers it. A payload that still carries the DRAM arrival log older builds
// kept decodes without it and proves a bandwidth refit. Framed as that build
// framed it, without the accounting stamp, the blob is refused and the leg
// re-recorded.
func TestScheduleSpellingOnDisk(t *testing.T) {
	w := workloads.ByName("projection")
	cfg := func() *config.SystemConfig {
		return &config.SystemConfig{
			Name:  "sliced",
			Cores: []config.CoreSpec{{Core: config.InOrderCore(), Count: 2}},
			Mem:   config.TableIIMem(),
		}
	}
	runCfg := func(c *Cache, sc *config.SystemConfig) (soc.Result, ReplayOutcome) {
		t.Helper()
		s, err := NewSession(Options{Workload: w, Scale: workloads.Tiny, Config: sc, Slicing: SliceDAE, Replay: true, Cache: c})
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res, s.Replay()
	}
	run := func(c *Cache) (soc.Result, ReplayOutcome) { return runCfg(c, cfg()) }
	c1 := NewCache()
	want, out := run(c1)
	if !out.Recorded {
		t.Fatalf("recording run did not publish a schedule (reason: %q)", out.Reason)
	}
	asWritten, olderPayload := NewCache(), NewCache()
	var schedName string
	var older []byte
	if err := c1.ExportArtifacts(func(name string, data []byte) error {
		if err := asWritten.ImportArtifact(name, data); err != nil || !strings.HasPrefix(name, "sched-") {
			return err
		}
		hdr, body, _ := bytes.Cut(data, []byte("\n"))
		var sched map[string]json.RawMessage
		if err := json.Unmarshal(body, &sched); err != nil {
			return err
		}
		var keys []string
		for k := range sched {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if want := []string{"ClockMHz", "FabricLat", "HopsTotal", "Invocations", "LineBytes", "Mem", "NoC",
			"Result", "Skipped", "SlicedRoles", "Stepped", "Tiles"}; !reflect.DeepEqual(keys, want) {
			t.Errorf("schedule blob keys = %v, want %v", keys, want)
		}
		var tiles []map[string]json.RawMessage
		if err := json.Unmarshal(sched["Tiles"], &tiles); err != nil {
			return err
		}
		for _, tile := range tiles {
			tile["Role"] = json.RawMessage(`""`)
		}
		delete(sched, "SlicedRoles")
		sched["DRAMArrivals"] = json.RawMessage(`[40,41,300]`)
		sched["Tiles"], _ = json.Marshal(tiles)
		body, _ = json.Marshal(sched)
		var h blobHeader
		if err := json.Unmarshal(hdr, &h); err != nil {
			return err
		}
		current, err := blob(h, body)
		if err != nil {
			return err
		}
		schedName, older = name, asOlderBuild(t, hdr, body)
		return olderPayload.ImportArtifact(name, current)
	}); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*Cache{"as written": asWritten, "an older build's payload under this build's header": olderPayload} {
		got, out := run(c)
		if !out.Replayed || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: replayed=%v (reason %q), result equal=%v", name, out.Replayed, out.Reason, reflect.DeepEqual(got, want))
		}
	}
	raised := cfg()
	raised.Mem.DRAM.BandwidthGBs += 24
	full, _ := runCfg(NewCache(), raised)
	if got, out := runCfg(olderPayload, raised); !slices.Contains(out.Families, "dram-refit") || !reflect.DeepEqual(got, full) {
		t.Errorf("older payload, raised bandwidth: replayed=%v families=%v (reason %q), result equal=%v",
			out.Replayed, out.Families, out.Reason, reflect.DeepEqual(got, full))
	}
	rerecordsOlderSchedule(t, schedName, older, want, run)
}

// runOn runs w on cfg over cache c.
func runOn(c *Cache, w *workloads.Workload, cfg *config.SystemConfig) (soc.Result, error) {
	s, err := NewSession(Options{Workload: w, Config: cfg, Cache: c})
	if err != nil {
		return soc.Result{}, err
	}
	return s.Run(context.Background())
}

// exportedTrace runs w on cfg in a fresh cache and returns its one exported
// trace blob, split into header line and payload, and the run's Result.
func exportedTrace(t testing.TB, w *workloads.Workload, cfg *config.SystemConfig) (hdr, payload []byte, res soc.Result) {
	t.Helper()
	c := NewCache()
	res, err := runOn(c, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.ExportArtifacts(func(name string, data []byte) error {
		hdr, payload, _ = bytes.Cut(data, []byte("\n"))
		return nil
	}); err != nil || payload == nil {
		t.Fatalf("export: %v (payload %d bytes)", err, len(payload))
	}
	return hdr, payload, res
}

// damagedTraces re-encodes payload's trace of w once per way to damage it so
// that it still decodes but does not replay on its kernel: a path with one
// bit too few or too many, its first decision flipped or its final ret
// missing, an instruction count the path does not run, or streams one
// element off the length the path consumes.
func damagedTraces(t testing.TB, w *workloads.Workload, payload []byte) map[string][]byte {
	t.Helper()
	f, err := w.Kernel()
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Lower(ddg.Build(f)).CFG
	// edit rewrites a stream's elements (for addresses, their deltas).
	edit := func(s *trace.Stream, edit func([]uint64) []uint64) {
		var vs []uint64
		s.Values(func(v uint64) bool { vs = append(vs, v); return true })
		*s = trace.Stream{}
		for _, v := range edit(vs) {
			s.Append(v)
		}
	}
	// path rebuilds the path from its block count and decisions, edited.
	path := func(e func(n int, bits []uint) (int, []uint)) func(*trace.TileTrace) {
		return func(tt *trace.TileTrace) {
			var bits []uint
			for w := tt.BBPath.Walk(cfg); ; {
				b, ok := w.Next()
				next, more := w.Peek()
				if !ok || !more {
					break
				}
				if s := cfg[b]; s[1] == int32(next) && s[0] != int32(next) {
					bits = append(bits, 1)
				} else if s[1] >= 0 {
					bits = append(bits, 0)
				}
			}
			n, bits := e(tt.BBPath.Len(), bits)
			tt.BBPath = trace.Path{}
			for range n {
				tt.BBPath.Enter()
			}
			for _, b := range bits {
				tt.BBPath.Branch(b)
			}
		}
	}
	mem := func(e func([]uint64) []uint64) func(*trace.TileTrace) {
		return func(tt *trace.TileTrace) { edit(&tt.Mem, e) }
	}
	out := map[string][]byte{}
	for name, damage := range map[string]func(tt *trace.TileTrace){
		"one bit missing":                 path(func(n int, b []uint) (int, []uint) { return n, b[:len(b)-1] }),
		"one bit extra":                   path(func(n int, b []uint) (int, []uint) { return n, append(b, 0) }),
		"first bit flipped":               path(func(n int, b []uint) (int, []uint) { b[0] ^= 1; return n, b }),
		"final ret missing":               path(func(n int, b []uint) (int, []uint) { return n - 1, b }),
		"no instructions counted":         func(tt *trace.TileTrace) { tt.DynInstrs = 0 },
		"one instruction too many":        func(tt *trace.TileTrace) { tt.DynInstrs++ },
		"one address missing":             mem(func(a []uint64) []uint64 { return a[:len(a)-1] }),
		"one address inserted mid-stream": mem(func(a []uint64) []uint64 { return slices.Insert(a, len(a)/2, a[0]) }),
		"one partner extra":               func(tt *trace.TileTrace) { tt.Comm.Append(0) },
	} {
		tr, err := trace.Read(bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		damage(tr.Tiles[0])
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestDamagedImportedTraceIsRetraced: a staged trace that decodes but does
// not replay on its kernel panicked the core (or the barrier count before
// it), silently shifted every later address onto the wrong instruction, or
// was adopted with a path the kernel cannot take, on every run of its key.
// Adoption now checks it, drops it and re-traces, so the run gives the fresh
// trace's Result.
func TestDamagedImportedTraceIsRetraced(t *testing.T) {
	w, cfg := spinWorkload("persist-damaged", 200), oneTileConfig("persist-damaged-cfg")
	hdr, payload, want := exportedTrace(t, w, cfg)
	for name, body := range damagedTraces(t, w, payload) {
		t.Run(name, func(t *testing.T) {
			c := NewCache()
			if err := c.ImportArtifact("damaged", asOlderBuild(t, hdr, body)); err != nil {
				t.Fatal(err)
			}
			got, err := runOn(c, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("run over the damaged import = %+v, want the fresh trace's %+v", got, want)
			}
			if c.ImportedCount() != 0 {
				t.Error("the damaged trace is still staged")
			}
		})
	}
}

// TestImportRefusesPayloadThatFailsItsChecksum: a blob whose payload changed
// after export is refused by its checksum, before the payload is decoded.
func TestImportRefusesPayloadThatFailsItsChecksum(t *testing.T) {
	hdr, payload, _ := exportedTrace(t, spinWorkload("persist-sum", 200), oneTileConfig("persist-sum-cfg"))
	data := append(append(append([]byte(nil), hdr...), '\n'), payload...)
	data[len(data)-1] ^= 1
	c := NewCache()
	if err := c.ImportArtifact("x", data); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("ImportArtifact = %v, want a checksum error", err)
	}
	if c.ImportedCount() != 0 {
		t.Error("a blob that fails its checksum was staged")
	}
}

// FuzzImportArtifact: whatever bytes a store hands back, importing them and
// running the session whose key a real export names never panics. A blob
// that carries a checksum either fails or gives the Result of a run that
// imported nothing. A blob without one (as builds before checksums wrote
// them) may hold another valid trace, so only the first half binds it.
func FuzzImportArtifact(f *testing.F) {
	w, cfg := spinWorkload("fuzz-import", 50), oneTileConfig("fuzz-import-cfg")
	hdr, payload, want := exportedTrace(f, w, cfg)
	f.Add(append(append(append([]byte(nil), hdr...), '\n'), payload...))
	f.Add(asOlderBuild(f, hdr, payload))
	for _, body := range damagedTraces(f, w, payload) {
		f.Add(asOlderBuild(f, hdr, body))
	}
	_, _, sched := olderAccountingSchedule(f, w, cfg)
	f.Add(sched)
	f.Fuzz(func(t *testing.T, data []byte) {
		c := NewCache()
		if c.ImportArtifact("fuzz", data) != nil {
			return
		}
		got, err := runOn(c, w, cfg)
		line, _, _ := bytes.Cut(data, []byte("\n"))
		var h blobHeader
		if err == nil && json.Unmarshal(line, &h) == nil && h.Sum != "" && !reflect.DeepEqual(got, want) {
			t.Errorf("a checksummed blob gave %+v, want the un-imported %+v", got, want)
		}
	})
}
