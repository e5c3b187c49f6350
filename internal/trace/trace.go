// Package trace defines MosaicSim-Go's dynamic trace artifacts: the
// control-flow path (one bit per executed conditional branch), the
// memory-address stream of every load/store/atomic, and recorded
// accelerator-invocation parameters.
//
// These are the two trace files the paper's Dynamic Trace Generator writes
// after the instrumented native run (§II-A), plus the accelerator-parameter
// trace used to match accelerator calls during simulation (§II-B). A compact
// binary serialization supports the storage study of §VI-B.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strings"
)

// AccCall records the parameters of one accelerator invocation, captured by
// the DTG so the simulator can configure the accelerator model (§II-B).
type AccCall struct {
	Name   string
	Params []int64
}

// TileTrace holds the dynamic trace of a single tile's kernel execution:
// only what the run decided. The successor of every br, which instruction
// each address or partner belongs to, and an access's size and kind, are
// static: the timing core takes them from the kernel as it walks BBPath.
type TileTrace struct {
	Tile      int32
	BBPath    Path      // the blocks in launch order, as condbr outcomes
	Mem       Stream    // load, store and atomic addresses in program order, each against its instruction's last (AppendAddr)
	Acc       []AccCall // accelerator invocations in program order
	Comm      Stream    // send destination / recv source tiles in program order (§II-C)
	DynInstrs int64     // dynamic instruction count
}

// Trace is the complete dynamic trace of one kernel run across all tiles.
type Trace struct {
	Kernel string
	Tiles  []*TileTrace
}

// TotalDynInstrs returns the dynamic instruction count summed over tiles.
func (t *Trace) TotalDynInstrs() int64 {
	var n int64
	for _, tt := range t.Tiles {
		n += tt.DynInstrs
	}
	return n
}

// TotalMemEvents returns the number of memory accesses summed over tiles.
func (t *Trace) TotalMemEvents() int64 {
	var n int64
	for _, tt := range t.Tiles {
		n += int64(tt.Mem.Len())
	}
	return n
}

const (
	magic   = "MSTR"
	version = 4
)

// ErrOlderVersion is what Read refuses a file of versions 1 to 3 with: each
// of their addresses is a delta from the access before it, whichever
// instruction made that one. A trace is a function of kernel, scale and
// tiles, so the cure is to trace again.
var ErrOlderVersion = errors.New("an older build's format: regenerate the trace")

// WriteTo serializes the trace in the compact binary format, version 4. The
// path is its block count, its bit count and its bits' bytes; partners are
// uvarints and addresses zigzag deltas from their instruction's previous
// address, mirroring how the original traces stay "typically less than 1 GB"
// for the control path while memory traces dominate (§VI-B). Streams are held
// in that form, so each is its count and then its chunks' bytes.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	// A bufio.Writer's first error sticks: every later write and the final
	// Flush return it, so only the Flush is checked.
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) { bw.Write(binary.AppendUvarint(buf[:0], v)) }
	putStr := func(s string) { put(uint64(len(s))); bw.WriteString(s) }
	putChunks := func(n int, c *chunks) {
		put(uint64(n))
		for _, ch := range c.full {
			bw.Write(ch)
		}
		bw.Write(c.cur)
	}

	bw.WriteString(magic)
	put(version)
	putStr(t.Kernel)
	put(uint64(len(t.Tiles)))
	for _, tt := range t.Tiles {
		put(uint64(tt.Tile))
		put(uint64(tt.DynInstrs))
		put(uint64(tt.BBPath.n))
		putChunks(tt.BBPath.bits, &tt.BBPath.chunks)
		putChunks(tt.Mem.n, &tt.Mem.chunks)
		put(uint64(len(tt.Acc)))
		for _, ac := range tt.Acc {
			putStr(ac.Name)
			put(uint64(len(ac.Params)))
			for _, p := range ac.Params {
				bw.Write(binary.AppendVarint(buf[:0], p))
			}
		}
		putChunks(tt.Comm.n, &tt.Comm.chunks)
	}
	err := bw.Flush()
	return cw.n, err
}

// EncodedSize returns the serialized size in bytes without retaining the
// encoding (used by the §VI-B storage-requirements experiment).
func (t *Trace) EncodedSize() (int64, error) {
	return t.WriteTo(io.Discard)
}

// DecodeError reports malformed or truncated input to Read.
type DecodeError struct {
	Field string // what was being decoded
	Err   error
}

func (e *DecodeError) Error() string { return "trace: decoding " + e.Field + ": " + e.Err.Error() }
func (e *DecodeError) Unwrap() error { return e.Err }

// decoder reads the primitives of the format. The first failure sticks: the
// readers return zero values from then on, and every loop over a declared
// count also stops on it, so a count is only ever a loop bound — memory is
// allocated for elements actually decoded, never for elements promised.
type decoder struct {
	br  *bufio.Reader
	n   int // bytes read
	err error
}

func (d *decoder) ReadByte() (byte, error) {
	d.n++
	return d.br.ReadByte()
}

func (d *decoder) fail(field string, err error) {
	if d.err == nil && err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		d.err = &DecodeError{Field: field, Err: err}
	}
}

// uvarint reads a varint and refuses an overlong one (a final 0x00 after a
// continuation byte), which WriteTo would not write back.
func (d *decoder) uvarint(field string) uint64 {
	if d.err != nil {
		return 0
	}
	start := d.n
	v, err := binary.ReadUvarint(d)
	if err == nil && d.n-start != (bits.Len64(v|1)+6)/7 {
		err = errors.New("overlong varint")
	}
	if err != nil {
		d.fail(field, err)
		return 0
	}
	return v
}

func (d *decoder) varint(field string) int64 {
	u := d.uvarint(field)
	return int64(u>>1) ^ -int64(u&1)
}

// bounded reads a uvarint that must fit below limit (an int32 index, an
// int64 count, a string length).
func (d *decoder) bounded(field string, limit uint64) uint64 {
	v := d.uvarint(field)
	if v > limit {
		d.fail(field, fmt.Errorf("%d overflows its field (max %d)", v, limit))
		return 0
	}
	return v
}

func (d *decoder) index(field string) int32 { return int32(d.bounded(field, math.MaxInt32)) }

// str reads a length-prefixed string by copying, so a lying length costs no
// more memory than the input that is really there.
func (d *decoder) str(field string) string {
	n := d.bounded(field+" length", math.MaxInt32)
	var sb strings.Builder
	if _, err := io.CopyN(&sb, d.br, int64(n)); err != nil {
		d.fail(field, err)
	}
	return sb.String()
}

// Read deserializes a trace written by WriteTo. Only version 4 is read: an
// older version is a *DecodeError wrapping ErrOlderVersion. Malformed input
// is a *DecodeError, never a panic, and peak allocation is linear in the
// bytes consumed: each value is checked and appended to its tile's streams,
// which re-encode to the bytes consumed.
func Read(r io.Reader) (*Trace, error) {
	d := &decoder{br: bufio.NewReader(r)}
	hdr := make([]byte, len(magic))
	if _, err := io.ReadFull(d.br, hdr); err != nil {
		d.fail("magic", err)
	} else if string(hdr) != magic {
		d.fail("magic", errors.New("bad magic"))
	}
	ver := d.uvarint("version")
	switch {
	case d.err != nil || ver == version:
	case ver >= 1 && ver < version:
		d.fail("version", fmt.Errorf("version %d: %w", ver, ErrOlderVersion))
	default:
		d.fail("version", fmt.Errorf("unsupported version %d", ver))
	}
	t := &Trace{Kernel: d.str("kernel name")}
	for i, ntiles := uint64(0), d.uvarint("tile count"); i < ntiles && d.err == nil; i++ {
		tt := &TileTrace{Tile: d.index("tile id")}
		tt.DynInstrs = int64(d.bounded("dynamic instruction count", math.MaxInt64))
		d.path(&tt.BBPath)
		for j, n := uint64(0), d.uvarint("memory event count"); j < n && d.err == nil; j++ {
			tt.Mem.Append(d.uvarint("address delta"))
		}
		for j, n := uint64(0), d.uvarint("accelerator call count"); j < n && d.err == nil; j++ {
			ac := AccCall{Name: d.str("accelerator name")}
			for k, np := uint64(0), d.uvarint("accelerator parameter count"); k < np && d.err == nil; k++ {
				ac.Params = append(ac.Params, d.varint("accelerator parameter"))
			}
			tt.Acc = append(tt.Acc, ac)
		}
		for j, n := uint64(0), d.uvarint("comm event count"); j < n && d.err == nil; j++ {
			tt.Comm.Append(uint64(d.index("comm partner")))
		}
		t.Tiles = append(t.Tiles, tt)
	}
	if d.err != nil {
		return nil, d.err
	}
	return t, nil
}

// path reads a path: block count, bit count and the bits' bytes,
// the last one's unused high bits zero.
func (d *decoder) path(p *Path) {
	p.n = int(d.bounded("path block count", math.MaxInt64))
	bits := d.bounded("path bit count", math.MaxInt64)
	for j := uint64(0); j < (bits+7)/8 && d.err == nil; j++ {
		x, err := d.ReadByte()
		d.fail("path bits", err)
		p.appendByte(x)
	}
	if p.bits = int(bits); d.err == nil && bits&7 != 0 && p.cur[len(p.cur)-1]>>(bits&7) != 0 {
		d.fail("path bits", errors.New("nonzero padding"))
	}
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
