package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
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

// addrsOf returns the address stream of one instruction accessing as.
func addrsOf(as ...uint64) (s Stream) {
	var last uint64
	for _, a := range as {
		s.AppendAddr(&last, a)
	}
	return s
}

// addrs reads s back as one instruction's addresses (nil when empty).
func addrs(s *Stream) (out []uint64) {
	var last uint64
	for r := s.Cursor(); ; {
		a, ok := r.NextAddr(&last)
		if !ok {
			return out
		}
		out = append(out, a)
	}
}

// size returns the bytes s holds.
func size(s *Stream) (n int) {
	for _, ch := range s.full {
		n += len(ch)
	}
	return n + len(s.cur)
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
	if w, g := []uint64{4096, 8192}, addrs(&got.Tiles[0].Mem); !reflect.DeepEqual(w, g) {
		t.Errorf("addresses read back as %v, want %v", g, w)
	}
	if w, g := []uint64{1, 0, 1}, collect(got.Tiles[0].Comm.Values); !reflect.DeepEqual(w, g) {
		t.Errorf("partners read back as %v, want %v", g, w)
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
	f := func(as []uint64) bool {
		tt := &TileTrace{Tile: 0, Mem: addrsOf(as...)}
		tr := &Trace{Kernel: "p", Tiles: []*TileTrace{tt}}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Tiles[0], tt) && slices.Equal(addrs(&got.Tiles[0].Mem), as)
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

// TestAddressesAreDeltasPerInstruction: on each of two tiles, two
// instructions take turns streaming through their own arrays. Each address is
// recorded against its instruction's last, so past each one's first access
// an address takes one byte (against the access before it, four), and read
// back with a table per tile over the same instruction order, the file gives
// the addresses back.
func TestAddressesAreDeltasPerInstruction(t *testing.T) {
	const n = 1000
	addr := func(tile, i, in int) uint64 { return uint64(1<<20*(2*tile+in+1) + 8*i) }
	tr := &Trace{Kernel: "k"}
	for tile := range 2 {
		tt := &TileTrace{Tile: int32(tile)}
		var last [2]uint64 // by instruction
		for i := range n {
			for in := range last {
				tt.Mem.AppendAddr(&last[in], addr(tile, i, in))
			}
		}
		tr.Tiles = append(tr.Tiles, tt)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil || !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip failed: %v", err)
	}
	for tile, tt := range got.Tiles {
		// Two 4-byte first addresses (1 to 4 MiB), then a byte each.
		if b := size(&tt.Mem); b != 2*n-2+2*4 {
			t.Errorf("tile %d: %d addresses take %d bytes, want %d", tile, 2*n, b, 2*n+6)
		}
		var last [2]uint64
		r := tt.Mem.Cursor()
		for i := range n {
			for in := range last {
				if a, ok := r.NextAddr(&last[in]); !ok || a != addr(tile, i, in) {
					t.Fatalf("tile %d: access %d of instruction %d read back as %#x, %v; want %#x", tile, i, in, a, ok, addr(tile, i, in))
				}
			}
		}
		if _, ok := r.NextAddr(&last[0]); ok {
			t.Errorf("tile %d: an address is left over", tile)
		}
	}
}

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
	const hdr = "MSTR\x04\x00"  // magic, version 4, empty kernel name
	const hdr1 = "MSTR\x01\x00" // version 1: each event named its instruction
	const hdr2 = "MSTR\x02\x00" // version 2: the path was block IDs
	const hdr3 = "MSTR\x03\x00" // version 3: addresses were deltas from the access before
	older := func(v int) string { return fmt.Sprintf("version: version %d: %s", v, ErrOlderVersion) }
	var good bytes.Buffer
	if _, err := sampleTrace().WriteTo(&good); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		in   []byte
		want string // substring of the error
	}{
		{"BB path count 2^62", uv(hdr, 1, 0, 0, 1<<62, 1<<62), "path bits: unexpected EOF"},
		{"tile count 2^63", uv(hdr, 1<<63), "tile id"},
		{"memory event count 2^40", uv(hdr, 1, 0, 0, 0, 0, 1<<40), "address delta"},
		{"accelerator call count 2^40", uv(hdr, 1, 0, 0, 0, 0, 0, 1<<40), "accelerator name"},
		{"accelerator parameter count 2^40", uv(hdr, 1, 0, 0, 0, 0, 0, 1, 0, 1<<40), "accelerator parameter"},
		{"comm event count 2^40", uv(hdr, 1, 0, 0, 0, 0, 0, 0, 1<<40), "comm partner"},
		{"kernel name length 2^30", uv("MSTR\x04", 1<<30), "kernel name"},
		{"kernel name length 2^40", uv("MSTR\x04", 1<<40), "overflows its field"},
		{"tile id 2^31", uv(hdr, 1, 1<<31), "tile id: 2147483648 overflows its field"},
		{"comm partner 2^31", uv(hdr, 1, 0, 0, 0, 0, 0, 0, 1, 1<<31), "comm partner: 2147483648 overflows"},
		{"dynamic instruction count 2^63", uv(hdr, 1, 0, 1<<63), "dynamic instruction count"},
		{"overlong varint", []byte(hdr + "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"), "tile count"},
		{"overlong address delta", append(uv(hdr, 1, 0, 0, 0, 0, 1), 0x80, 0x80, 0x00), "address delta: overlong varint"},
		{"overlong tile count", []byte(hdr + "\x81\x80\x00"), "tile count: overlong varint"},
		{"path bit count 2^40", uv(hdr, 1, 0, 0, 1<<41, 1<<40), "path bits: unexpected EOF"},
		{"path block count 2^63", uv(hdr, 1, 0, 0, 1<<63), "path block count"},
		{"nonzero padding", uv(hdr, 1, 0, 0, 2, 1, 3), "path bits: nonzero padding"},
		// An older version is refused at its header, whatever follows.
		{"block id 2^32", uv(hdr1, 1, 0, 0, 1, 1<<32), older(1)},
		{"instruction index 2^31", uv(hdr1, 1, 0, 0, 0, 1, 1<<31), older(1)},
		{"v2 memory event count 2^40", uv(hdr2, 1, 0, 0, 0, 1<<40), older(2)},
		{"v2 comm event count 2^40", uv(hdr2, 1, 0, 0, 0, 0, 0, 1<<40), older(2)},
		{"v2 comm partner 2^31", uv(hdr2, 1, 0, 0, 0, 0, 0, 1, 1<<31), older(2)},
		{"v2 path without a CFG", uv(hdr2, 1, 0, 0, 1, 0), older(2)},
		{"overlong block id", append(uv(hdr2, 1, 0, 0, 1), 0x81, 0x00), older(2)},
		{"v3 path bit count 2^40", uv(hdr3, 1, 0, 0, 1<<41, 1<<40), older(3)},
		{"v3 path block count 2^63", uv(hdr3, 1, 0, 0, 1<<63), older(3)},
		{"v3 nonzero padding", uv(hdr3, 1, 0, 0, 2, 1, 3), older(3)},
		{"future version", []byte("MSTR\x05"), "unsupported version 5"},
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
// into its own chunks and never copied. The path takes a bit per decision,
// and an address a byte per step of its instruction's stride.
func TestDecodeAllocationIsLinear(t *testing.T) {
	tt := &TileTrace{}
	var last [2]uint64 // a load's and a store's, on arrays 1 MiB apart
	for i := 0; i < 300_000; i++ {
		tt.BBPath.Enter()
		tt.BBPath.Branch(uint(i % 7 / 6))
		tt.Mem.AppendAddr(&last[i&1], uint64(4096+1<<20*(i&1)+16*(i>>1)))
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
	// Past each instruction's first address (2 and 4 bytes), every one is its
	// stride of 16 bytes, in a byte; against the access before, 3 bytes.
	if b := size(&got.Tiles[0].Mem); b != 2+4+299_998 {
		t.Errorf("300,000 addresses take %d bytes, want 300,004", b)
	}
}
