package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// streamOf returns the stream holding vs as uvarints.
func streamOf(vs ...uint64) (s Stream) {
	for _, v := range vs {
		s.Append(v)
	}
	return s
}

// addrsOf returns the address stream holding as.
func addrsOf(as ...uint64) (s Stream) {
	for _, a := range as {
		s.AppendAddr(a)
	}
	return s
}

// collect returns what an iteration over a stream yields (nil when empty).
func collect(seq func(func(uint64) bool)) (out []uint64) {
	seq(func(v uint64) bool { out = append(out, v); return true })
	return out
}

func sampleTrace() *Trace {
	return &Trace{
		Kernel: "vecadd",
		Tiles: []*TileTrace{
			{
				Tile:      0,
				BBPath:    streamOf(0, 2, 2, 2, 1),
				Mem:       addrsOf(4096, 8192),
				Acc:       []AccCall{{Name: "acc_sgemm", Params: []int64{64, 64, 64}}},
				Comm:      streamOf(1, 0, 1),
				DynInstrs: 46,
			},
			{
				Tile:      1,
				BBPath:    streamOf(0, 1),
				Mem:       addrsOf(100),
				DynInstrs: 9,
			},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, buffer has %d", n, buf.Len())
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Errorf("read back %+v, want the recorded %+v", got, tr)
	}
	if w, g := []uint64{4096, 8192}, collect(got.Tiles[0].Mem.Values); !reflect.DeepEqual(w, g) {
		t.Errorf("addresses read back as %v, want %v", g, w)
	}
}

func TestEncodedSizeMatchesWrite(t *testing.T) {
	tr := sampleTrace()
	sz, err := tr.EncodedSize()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if sz != int64(buf.Len()) {
		t.Errorf("EncodedSize = %d, written = %d", sz, buf.Len())
	}
}

func TestTotals(t *testing.T) {
	tr := sampleTrace()
	if tr.TotalDynInstrs() != 55 {
		t.Errorf("TotalDynInstrs = %d, want 55", tr.TotalDynInstrs())
	}
	if tr.TotalMemEvents() != 3 {
		t.Errorf("TotalMemEvents = %d, want 3", tr.TotalMemEvents())
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := Read(bytes.NewReader([]byte("NOPE...."))); err == nil {
		t.Error("bad magic should fail")
	}
	// Truncated stream.
	var buf bytes.Buffer
	if _, err := sampleTrace().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := Read(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated input should fail")
	}
}

// TestDeltaEncodingProperty checks round-tripping of arbitrary address
// streams, including address deltas that go backwards and wrap widely.
func TestDeltaEncodingProperty(t *testing.T) {
	f := func(addrs []uint64) bool {
		tt := &TileTrace{Tile: 0, Mem: addrsOf(addrs...)}
		tr := &Trace{Kernel: "p", Tiles: []*TileTrace{tt}}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Tiles[0], tt) && slices.Equal(collect(tt.Mem.Values), addrs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestBBPathProperty checks arbitrary control-flow paths survive round trips.
func TestBBPathProperty(t *testing.T) {
	f := func(path []uint64) bool {
		for i := range path {
			path[i] &= math.MaxInt32 // what Read takes as a block ID
		}
		tr := &Trace{Kernel: "p", Tiles: []*TileTrace{{BBPath: streamOf(path...)}}}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		g := collect(got.Tiles[0].BBPath.Values)
		if len(path) == 0 {
			return len(g) == 0
		}
		return reflect.DeepEqual(g, path)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestReadsTraceOfOlderBuild pins the file format: testdata holds histo at
// tiny scale on two tiles as written by `mosaic-trace -o` of commit 6188979
// (version 1: each event also names its instruction, size and kind). This
// build must read it, and write it back as version 2 in at most 0.65x the
// bytes, pinned by their hash, which decode to the same streams.
func TestReadsTraceOfOlderBuild(t *testing.T) {
	v1, err := os.ReadFile("testdata/histo_tiny_2t_6188979.mstr")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Read(bytes.NewReader(v1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Tiles) != 2 || tr.TotalDynInstrs() != 44030 || tr.TotalMemEvents() != 6000 {
		t.Errorf("decoded %d tiles, %d instrs, %d mem events; want 2, 44030, 6000",
			len(tr.Tiles), tr.TotalDynInstrs(), tr.TotalMemEvents())
	}
	var v2 bytes.Buffer
	if _, err := tr.WriteTo(&v2); err != nil {
		t.Fatal(err)
	}
	if v1[len(magic)] != 1 || v2.Bytes()[len(magic)] != 2 {
		t.Errorf("format versions: file %d, re-encoded %d; want 1, 2", v1[len(magic)], v2.Bytes()[len(magic)])
	}
	if 100*v2.Len() > 65*len(v1) {
		t.Errorf("version 2 takes %d bytes for the file's %d (> 0.65x)", v2.Len(), len(v1))
	}
	const wantSum = "be6aa0794220cc3a5fcbd56bad22bb21f50bf5ff081a13b54ce69a1ee7f2a763"
	if sum := sha256.Sum256(v2.Bytes()); hex.EncodeToString(sum[:]) != wantSum {
		t.Errorf("version 2 bytes hash to %x, want %s", sum, wantSum)
	}
	again, err := Read(&v2)
	if err != nil || !reflect.DeepEqual(again, tr) {
		t.Errorf("version 2 does not decode to the file's streams (%v)", err)
	}

	// A version 1 comm event is an instruction index, then the partner.
	comm, err := Read(bytes.NewReader([]byte("MSTR\x01\x00\x01\x00\x00\x00\x00\x00\x01\x07\x03")))
	if err != nil || !reflect.DeepEqual(collect(comm.Tiles[0].Comm.Values), []uint64{3}) {
		t.Errorf("version 1 comm event decoded to %v, %v; want partner 3", comm, err)
	}
}

// crasher is a well-formed header, one tile, and a BB path that claims 2^62
// entries: the input that killed the count-trusting decoder in makeslice.
var crasher = binary.AppendUvarint([]byte("MSTR\x01\x00\x01\x00\x00"), 1<<62)

// TestHostileInputs: every lie a trace file can tell is a *DecodeError that
// says "trace:", never a panic, and costs memory in proportion to the input.
func TestHostileInputs(t *testing.T) {
	uv := func(prefix string, vs ...uint64) []byte {
		b := []byte(prefix)
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	const hdr = "MSTR\x01\x00"  // magic, version 1, empty kernel name
	const hdr2 = "MSTR\x02\x00" // version 2
	var good bytes.Buffer
	if _, err := sampleTrace().WriteTo(&good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		in   []byte
		want string // substring of the error
	}{
		{"BB path count 2^62", crasher, "block id"},
		{"tile count 2^63", uv(hdr, 1<<63), "tile id"},
		{"memory event count 2^40", uv(hdr, 1, 0, 0, 0, 1<<40), "memory event instruction"},
		{"accelerator call count 2^40", uv(hdr, 1, 0, 0, 0, 0, 1<<40), "accelerator name"},
		{"accelerator parameter count 2^40", uv(hdr, 1, 0, 0, 0, 0, 1, 0, 1<<40), "accelerator parameter"},
		{"comm event count 2^40", uv(hdr, 1, 0, 0, 0, 0, 0, 1<<40), "comm event instruction"},
		{"kernel name length 2^30", uv("MSTR\x01", 1<<30), "kernel name"},
		{"kernel name length 2^40", uv("MSTR\x01", 1<<40), "overflows its field"},
		{"tile id 2^31", uv(hdr, 1, 1<<31), "tile id: 2147483648 overflows its field"},
		{"block id 2^32", uv(hdr, 1, 0, 0, 1, 1<<32), "block id: 4294967296 overflows"},
		{"instruction index 2^31", uv(hdr, 1, 0, 0, 0, 1, 1<<31), "memory event instruction"},
		{"comm partner 2^31", uv(hdr, 1, 0, 0, 0, 0, 0, 1, 0, 1<<31), "comm partner"},
		{"dynamic instruction count 2^63", uv(hdr, 1, 0, 1<<63), "dynamic instruction count"},
		{"overlong varint", []byte(hdr + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), "tile count"},
		{"v2 memory event count 2^40", uv(hdr2, 1, 0, 0, 0, 1<<40), "address delta"},
		{"v2 comm event count 2^40", uv(hdr2, 1, 0, 0, 0, 0, 0, 1<<40), "comm partner"},
		{"v2 comm partner 2^31", uv(hdr2, 1, 0, 0, 0, 0, 0, 1, 1<<31), "comm partner: 2147483648 overflows"},
		{"overlong block id", append(uv(hdr2, 1, 0, 0, 1), 0x81, 0x00), "block id: overlong varint"},
		{"overlong address delta", append(uv(hdr2, 1, 0, 0, 0, 1), 0x80, 0x80, 0x00), "address delta: overlong varint"},
		{"overlong tile count", []byte(hdr2 + "\x81\x80\x00"), "tile count: overlong varint"},
		{"future version", []byte("MSTR\x03"), "unsupported version 3"},
		{"bad magic", []byte("NOPE...."), "bad magic"},
		{"empty", nil, "magic"},
		{"truncated", good.Bytes()[:good.Len()/2], "unexpected EOF"},
		{"one byte short", good.Bytes()[:good.Len()-1], "unexpected EOF"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tr, err := Read(bytes.NewReader(tc.in))
			runtime.ReadMemStats(&after)
			var de *DecodeError
			if tr != nil || !errors.As(err, &de) || !strings.HasPrefix(err.Error(), "trace: ") {
				t.Fatalf("Read = %v, %v; want a *DecodeError that says trace:", tr, err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
			// bufio's 4 KB, one minimum chunk per stream, the error: not the claim.
			if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
				t.Errorf("decoding %d hostile bytes allocated %d bytes", len(tc.in), got)
			}
		})
	}
}

// TestDecodeAllocationIsLinear bounds the price of not trusting counts: Read
// allocates little more than what it decodes, because each stream is decoded
// into its own chunks and never copied.
func TestDecodeAllocationIsLinear(t *testing.T) {
	tt := &TileTrace{}
	for i := 0; i < 300_000; i++ {
		tt.BBPath.Append(uint64(i % 7))
		tt.Mem.AppendAddr(uint64(4096 + 8*i))
	}
	tr := &Trace{Kernel: "k", Tiles: []*TileTrace{tt, tt, tt}}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	decoded := uint64(buf.Len())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := Read(&buf)
	runtime.ReadMemStats(&after)
	if err != nil || !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip failed: %v", err)
	}
	// 1.10x: the unfilled rest of each stream's last chunk, and bufio.
	if alloc := after.TotalAlloc - before.TotalAlloc; 4*alloc > 5*decoded {
		t.Errorf("decoding %d bytes of events allocated %d (> 1.25x)", decoded, alloc)
	}
}
