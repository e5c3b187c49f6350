package trace

import "encoding/binary"

// chunks holds a stream's bytes: the first chunk holds minChunk bytes, each
// later one twice the last up to maxChunk, and a filled chunk is never moved.
type chunks struct {
	full [][]byte // filled chunks, oldest first
	cur  []byte   // the chunk being filled
}

const (
	minChunk = 256      // bytes: 64 tile traces of a small kernel stay small
	maxChunk = 64 << 10 // bytes
)

// chunk returns chunk i, the one being filled for i == len(c.full).
func (c *chunks) chunk(i int) []byte {
	if i < len(c.full) {
		return c.full[i]
	}
	return c.cur
}

func (c *chunks) grow() {
	n := minChunk
	if c.cur != nil {
		c.full = append(c.full, c.cur)
		n = min(2*cap(c.cur), maxChunk)
	}
	c.cur = make([]byte, 0, n)
}

// appendByte adds x to a list whose chunks are filled to capacity.
func (c *chunks) appendByte(x byte) {
	if len(c.cur) == cap(c.cur) {
		c.grow()
	}
	c.cur = append(c.cur, x)
}

// Stream is an append-only event stream held in its file form: each element
// a uvarint, in chunks. An element never straddles two chunks: one starts
// when fewer than MaxVarintLen64 bytes are left, so where chunks end depends
// only on the bytes. The generator records into the chunks, Read decodes into
// them, WriteTo copies them out and the timing core reads them in place
// through a Cursor. The zero value is an empty stream.
type Stream struct {
	chunks
	n int // elements
}

// Append adds v to the stream as a uvarint. It encodes into a local slice,
// which keeps its loop free of stores to s.
func (s *Stream) Append(v uint64) {
	b := s.cur
	if cap(b)-len(b) < binary.MaxVarintLen64 {
		s.grow()
		b = s.cur
	}
	for ; v >= 0x80; v >>= 7 {
		b = append(b, byte(v)|0x80)
	}
	s.cur = append(b, byte(v))
	s.n++
}

// AppendAddr adds address a as the zigzag uvarint of its delta from *last,
// then sets *last to a. The caller keeps *last per static instruction, 0
// before its first access, so a unit-stride access costs one byte whatever
// ran between; Cursor.NextAddr, given the same slot, reads a back.
func (s *Stream) AppendAddr(last *uint64, a uint64) {
	d := int64(a - *last)
	*last = a
	s.Append(uint64(d<<1 ^ d>>63))
}

// Len returns the number of elements in the stream.
func (s *Stream) Len() int { return s.n }

// Values calls yield with the stream's elements in order until it returns
// false. It has the signature of an iter.Seq.
func (s *Stream) Values(yield func(uint64) bool) {
	for r := s.Cursor(); ; {
		if v, ok := r.Next(); !ok || !yield(v) {
			return
		}
	}
}

// Cursor returns a sequential reader of the stream's elements. Appending to
// the stream while a cursor reads it is not supported.
func (s *Stream) Cursor() Cursor {
	r := Cursor{s: s}
	r.Next()
	return r
}

// Cursor reads a stream front to back, decoding in place one element ahead,
// so Peek is a field read. Next decodes 1- and 2-byte varints inline, which
// are most partners and address deltas.
type Cursor struct {
	v    uint64  // the next element, decoded
	rest []byte  // the undecoded part of the current chunk
	s    *Stream // nil past the end
	next int     // the chunk after rest: an index into s.full, len(s.full) for s.cur
}

// Peek returns the next element without consuming it; ok is false at the end
// of the stream.
func (r *Cursor) Peek() (v uint64, ok bool) { return r.v, r.s != nil }

// Next consumes and returns the next element; ok is false at the end of the
// stream.
func (r *Cursor) Next() (v uint64, ok bool) {
	v, ok = r.v, r.s != nil
	for len(r.rest) == 0 {
		if !ok || r.next > len(r.s.full) {
			r.s = nil
			return v, ok
		}
		r.rest = r.s.chunk(r.next)
		r.next++
	}
	switch b := r.rest; {
	case b[0] < 0x80:
		r.v, r.rest = uint64(b[0]), b[1:]
	case b[1] < 0x80: // an element never ends a chunk unfinished
		r.v, r.rest = uint64(b[0]&0x7f)|uint64(b[1])<<7, b[2:]
	default:
		var k int
		r.v, k = binary.Uvarint(b)
		r.rest = b[k:]
	}
	return v, ok
}

// NextAddr consumes the next element as an address AppendAddr wrote against
// the slot last, which it updates; ok is false at the end of the stream. (a
// holds the zigzag delta first, which keeps NextAddr inlinable.)
func (r *Cursor) NextAddr(last *uint64) (a uint64, ok bool) {
	if a, ok = r.Next(); ok {
		*last += a>>1 ^ -(a & 1)
	}
	return *last, ok
}
