package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// pathOf returns the path of n blocks holding bits.
func pathOf(n int, bits ...uint) (p Path) {
	for range n {
		p.Enter()
	}
	for _, b := range bits {
		p.Branch(b)
	}
	return p
}

// collect returns what an iteration over a stream yields (nil when empty).
func collect(seq func(func(uint64) bool)) (out []uint64) {
	seq(func(v uint64) bool { out = append(out, v); return true })
	return out
}

// blocks returns p walked over cfg (nil when empty).
func blocks(p *Path, cfg CFG) (out []int) {
	for w := p.Walk(cfg); ; {
		b, ok := w.Next()
		if !ok {
			return out
		}
		out = append(out, b)
	}
}

// loop is a kernel's CFG: the entry branches to a loop (block 1) whose condbr
// takes it round again (Targets[0]) or out to the ret (block 2).
var loop = CFG{{1, -1}, {1, 2}, {-1, -1}}

func sampleTrace() *Trace {
	return &Trace{
		Kernel: "vecadd",
		Tiles: []*TileTrace{
			{
				Tile:      0,
				BBPath:    pathOf(5, 0, 0, 1),
				Mem:       addrsOf(4096, 8192),
				Acc:       []AccCall{{Name: "acc_sgemm", Params: []int64{64, 64, 64}}},
				Comm:      streamOf(1, 0, 1),
				DynInstrs: 46,
			},
			{
				Tile:      1,
				BBPath:    pathOf(3, 1),
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

// TestBBPathProperty checks arbitrary paths survive round trips.
func TestBBPathProperty(t *testing.T) {
	f := func(n uint16, bits []bool) bool {
		var p Path
		for _, b := range bits {
			p.Branch(map[bool]uint{true: 1}[b])
		}
		for range n {
			p.Enter()
		}
		tr := &Trace{Kernel: "p", Tiles: []*TileTrace{{BBPath: p}}}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		return err == nil && reflect.DeepEqual(got, tr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWalkFollowsTheKernel: a path is walked over its kernel's CFG, a bit
// read at each condbr, and Walk and Count agree: to the ret, or to a condbr
// with no bit left.
func TestWalkFollowsTheKernel(t *testing.T) {
	for _, tc := range []struct {
		p    Path
		want []int
	}{
		{pathOf(5, 0, 0, 1), []int{0, 1, 1, 1, 2}},
		{pathOf(3, 1), []int{0, 1, 2}},
		{pathOf(2), []int{0, 1}},          // no decision left at the condbr
		{pathOf(3, 1, 1), []int{0, 1, 2}}, // a bit left after the ret
		{Path{}, nil},
	} {
		if got := blocks(&tc.p, loop); !slices.Equal(got, tc.want) {
			t.Errorf("path of %d blocks and %d bits walks %v, want %v", tc.p.Len(), tc.p.Bits(), got, tc.want)
		}
		counts := make([]int, len(loop))
		tc.p.Count(loop, counts)
		want := make([]int, len(loop))
		for _, b := range tc.want {
			want[b]++
		}
		if !slices.Equal(counts, want) {
			t.Errorf("path %v counts %v, want %v", tc.want, counts, want)
		}
	}
	// Past a chunk: 2,000 decisions fill the 256-byte first chunk.
	p := pathOf(2002)
	for i := 0; i < 2000; i++ {
		p.Branch(uint(i / 1999))
	}
	counts := make([]int, len(loop))
	p.Count(loop, counts)
	if got := blocks(&p, loop); len(got) != 2002 || got[2001] != 2 || !slices.Equal(counts, []int{1, 2000, 1}) {
		t.Errorf("a 2,000-decision path walks %d blocks ending in %d and counts %v", len(got), got[len(got)-1], counts)
	}
}

// v2 encodes one tile of DynInstrs 1 whose path is blocks, in version 2.
func v2(blocks ...uint64) []byte {
	b := binary.AppendUvarint([]byte("MSTR\x02\x00\x01\x00\x01"), uint64(len(blocks)))
	for _, id := range blocks {
		b = binary.AppendUvarint(b, id)
	}
	return append(b, 0, 0, 0)
}

// TestReadTurnsBlockIDsIntoBits: a version 1 or 2 path becomes bits against
// the CFG its tile is read with, and a path that CFG cannot take, or one
// read with none, is refused.
func TestReadTurnsBlockIDsIntoBits(t *testing.T) {
	tr, err := Read(bytes.NewReader(v2(0, 1, 1, 1, 2)), loop)
	if err != nil || !reflect.DeepEqual(tr.Tiles[0].BBPath, pathOf(5, 0, 0, 1)) {
		t.Fatalf("Read = %v, %v; want the path of 5 blocks and bits 0 0 1", tr, err)
	}
	for name, tc := range map[string]struct {
		in   []byte
		cfgs []CFG
		want string
	}{
		"block the kernel lacks":    {v2(0, 1, 7, 2), []CFG{loop}, "block id: the kernel cannot step to block 7"},
		"entry block missing":       {v2(1, 1, 2), []CFG{loop}, "block id: the kernel cannot step to block 1"},
		"a step to a non-successor": {v2(0, 2), []CFG{loop}, "block id: the kernel cannot step to block 2"},
		"final ret missing":         {v2(0, 1, 1), []CFG{loop}, "the path does not end in a ret"},
		"no CFG":                    {v2(0, 1, 2), nil, ErrNoCFG.Error()},
	} {
		t.Run(name, func(t *testing.T) {
			tr, err := Read(bytes.NewReader(tc.in), tc.cfgs...)
			var de *DecodeError
			if tr != nil || !errors.As(err, &de) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Read = %v, %v; want a *DecodeError that says %q", tr, err, tc.want)
			}
		})
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
	const hdr3 = "MSTR\x03\x00" // version 3
	var good bytes.Buffer
	if _, err := sampleTrace().WriteTo(&good); err != nil {
		t.Fatal(err)
	}
	const noCFG = "v2 path without a CFG" // the one row read with none
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
		{"v3 path bit count 2^40", uv(hdr3, 1, 0, 0, 1<<41, 1<<40), "path bits: unexpected EOF"},
		{"v3 path block count 2^63", uv(hdr3, 1, 0, 0, 1<<63), "path block count"},
		{"v3 nonzero padding", uv(hdr3, 1, 0, 0, 2, 1, 3), "path bits: nonzero padding"},
		{noCFG, uv(hdr2, 1, 0, 0, 1, 0), "BB path: " + ErrNoCFG.Error()},
		{"future version", []byte("MSTR\x04"), "unsupported version 4"},
		{"bad magic", []byte("NOPE...."), "bad magic"},
		{"empty", nil, "magic"},
		{"truncated", good.Bytes()[:good.Len()/2], "unexpected EOF"},
		{"one byte short", good.Bytes()[:good.Len()-1], "unexpected EOF"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			var cfgs []CFG
			if tc.name != noCFG {
				cfgs = append(cfgs, loop)
			}
			tr, err := Read(bytes.NewReader(tc.in), cfgs...)
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
// into its own chunks and never copied. The path takes a bit per decision.
func TestDecodeAllocationIsLinear(t *testing.T) {
	tt := &TileTrace{}
	for i := 0; i < 300_000; i++ {
		tt.BBPath.Enter()
		tt.BBPath.Branch(uint(i % 7 / 6))
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
	// 1.25x: the unfilled rest of each stream's last chunk, and bufio.
	if alloc := after.TotalAlloc - before.TotalAlloc; 4*alloc > 5*decoded {
		t.Errorf("decoding %d bytes of events allocated %d (> 1.25x)", decoded, alloc)
	}
	// The path is its counts and its bytes of bits: 300,000 bits in 37,500.
	noPath := *tt
	noPath.BBPath = Path{}
	rest, err := (&Trace{Kernel: "k", Tiles: []*TileTrace{&noPath, &noPath, &noPath}}).EncodedSize()
	if path := int64(decoded) - rest; err != nil || path != 3*(2*3-2+300_000/8) {
		t.Errorf("three 300,000-decision paths take %d bytes, want 3 x (37,500 + their counts' 4 more)", path)
	}
}
