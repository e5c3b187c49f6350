package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"mosaicsim/internal/core"
	"mosaicsim/internal/dae"
	"mosaicsim/internal/ddg"
	"mosaicsim/internal/trace"
	"mosaicsim/internal/workloads"
)

// histo returns histo's kernel at O0, which testdata's version 1 file traced,
// lowered for the timing core.
func histo(t testing.TB) *core.Program {
	f, err := workloads.ByName("histo").Kernel()
	if err != nil {
		t.Fatal(err)
	}
	return core.Lower(ddg.Build(f))
}

// TestReadsTraceOfOlderBuild pins the file format: testdata holds histo at
// tiny scale on two tiles as written by `mosaic-trace -o` of commit 6188979
// (version 1: the path is block IDs, and each event also names its
// instruction, size and kind). This build reads it against histo's CFG, both
// tiles pass Check, and it writes it back as version 3 in at most 0.30x the
// bytes, pinned by their hash, which decode with no CFG to the same streams.
func TestReadsTraceOfOlderBuild(t *testing.T) {
	v1, err := os.ReadFile("testdata/histo_tiny_2t_6188979.mstr")
	if err != nil {
		t.Fatal(err)
	}
	p := histo(t)
	tr, err := trace.Read(bytes.NewReader(v1), p.CFG)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tiles) != 2 || tr.TotalDynInstrs() != 44030 || tr.TotalMemEvents() != 6000 {
		t.Errorf("decoded %d tiles, %d instrs, %d mem events; want 2, 44030, 6000",
			len(tr.Tiles), tr.TotalDynInstrs(), tr.TotalMemEvents())
	}
	for _, tt := range tr.Tiles {
		if err := p.Check(tt, 2); err != nil {
			t.Errorf("tile %d: %v", tt.Tile, err)
		}
	}
	var v3 bytes.Buffer
	if _, err := tr.WriteTo(&v3); err != nil {
		t.Fatal(err)
	}
	if v1[4] != 1 || v3.Bytes()[4] != 3 {
		t.Errorf("format versions: file %d, re-encoded %d; want 1, 3", v1[4], v3.Bytes()[4])
	}
	if 100*v3.Len() > 30*len(v1) {
		t.Errorf("version 3 takes %d bytes for the file's %d (> 0.30x)", v3.Len(), len(v1))
	}
	const wantSum = "4bedda5a2baef34126e11acd85a87794a4d7a568e570d5fa9651fecca112e9b0"
	if sum := sha256.Sum256(v3.Bytes()); hex.EncodeToString(sum[:]) != wantSum {
		t.Errorf("version 3 bytes hash to %x, want %s", sum, wantSum)
	}
	again, err := trace.Read(&v3)
	if err != nil || !reflect.DeepEqual(again, tr) {
		t.Errorf("version 3 does not decode to the file's streams (%v)", err)
	}

	// A version 1 comm event is an instruction index, then the partner.
	comm, err := trace.Read(bytes.NewReader([]byte("MSTR\x01\x00\x01\x00\x00\x00\x00\x00\x01\x07\x03")))
	if err != nil || !reflect.DeepEqual(collect(comm.Tiles[0].Comm.Values), []uint64{3}) {
		t.Errorf("version 1 comm event decoded to %v, %v; want partner 3", comm, err)
	}
}

func collect(seq func(func(uint64) bool)) (out []uint64) {
	seq(func(v uint64) bool { out = append(out, v); return true })
	return out
}

// FuzzTraceDecode feeds Read arbitrary bytes, with histo's CFG for a version
// 1 or 2 path: it must return an error that says "trace:", or a trace that
// re-encodes to bytes which decode to an equal trace — and never panic or
// take a second. A version 3 input re-encodes to exactly the bytes Read
// consumed: every value has one encoding. The corpus starts from real traces
// in version 3 (SPMD with atomics, an accelerator call, DAE pairs with comm
// events), from a version 1 file an older build wrote, and from the count lie
// that killed the old decoder.
func FuzzTraceDecode(f *testing.F) {
	add := func(tr *trace.Trace, err error) {
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, name := range []string{"histo", "sgemm-accel"} {
		_, tr, err := workloads.ByName(name).Trace(2, workloads.Tiny)
		add(tr, err)
	}
	w := workloads.EWSD()
	k, err := w.Kernel()
	if err != nil {
		f.Fatal(err)
	}
	sl, err := dae.Slice(k)
	if err != nil {
		f.Fatal(err)
	}
	add(w.TracePairs(sl.Access, sl.Execute, 1, workloads.Tiny))
	f.Add(binary.AppendUvarint([]byte("MSTR\x01\x00\x01\x00\x00"), 1<<62))
	v1, err := os.ReadFile("testdata/histo_tiny_2t_6188979.mstr")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v1)
	cfg := histo(f).CFG

	f.Fuzz(func(t *testing.T, data []byte) {
		start := time.Now()
		tr, err := trace.Read(bytes.NewReader(data), cfg)
		if d := time.Since(start); d > time.Second {
			t.Fatalf("decoding %d bytes took %v", len(data), d)
		}
		if err != nil {
			if tr != nil || !strings.HasPrefix(err.Error(), "trace: ") {
				t.Fatalf("Read = %v, %q; want nil and an error that says trace:", tr, err)
			}
			return
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		if data[4] == 3 && !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatal("a version 3 trace re-encodes to other bytes than it was read from")
		}
		again, err := trace.Read(&buf)
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if !reflect.DeepEqual(tr, again) {
			t.Fatal("re-encoded trace decodes to a different trace")
		}
	})
}
