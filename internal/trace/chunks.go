package trace

// Chunks is an append-only event stream stored as a list of chunks: the
// first holds minChunk elements, each later one twice the last up to
// maxChunk, and a filled chunk is never moved. Recording n events writes each
// once and allocates n plus the unfilled rest of the last chunk, against the
// ~5n a single slice costs as append regrows it. The chunks are the trace:
// the generator records into them, Read decodes into them, and the timing
// core reads them through a Cursor. The zero value is an empty stream.
type Chunks[T any] struct {
	full [][]T // filled chunks, oldest first
	cur  []T   // the chunk being filled
}

const (
	minChunk = 256      // elements: 64 tile traces of a small kernel stay small
	maxChunk = 64 << 10 // elements: 512 KB of addresses
)

// Append adds v to the stream.
func (c *Chunks[T]) Append(v T) {
	if len(c.cur) == cap(c.cur) {
		c.grow()
	}
	c.cur = append(c.cur, v)
}

func (c *Chunks[T]) grow() {
	n := minChunk
	if c.cur != nil {
		c.full = append(c.full, c.cur)
		n = min(2*cap(c.cur), maxChunk)
	}
	c.cur = make([]T, 0, n)
}

// Len returns the number of elements in the stream.
func (c *Chunks[T]) Len() int {
	n := len(c.cur)
	for _, ch := range c.full {
		n += len(ch)
	}
	return n
}

// Values calls yield with the stream's elements in order until it returns
// false. It has the signature of an iter.Seq, and it is small enough to
// inline, so a loop over a stream compiles to loops over its chunks.
func (c *Chunks[T]) Values(yield func(T) bool) {
	for _, ch := range c.full {
		for _, v := range ch {
			if !yield(v) {
				return
			}
		}
	}
	for _, v := range c.cur {
		if !yield(v) {
			return
		}
	}
}

// Cursor returns a sequential reader positioned at the stream's first
// element. Appending to the stream while a cursor reads it is not supported.
func (c *Chunks[T]) Cursor() Cursor[T] { return Cursor[T]{s: c} }

// Cursor reads a stream front to back. It holds the current chunk as a plain
// slice, so a read costs what indexing a slice does plus, once per chunk, the
// switch to the next one.
type Cursor[T any] struct {
	rest []T // the unread part of the current chunk
	s    *Chunks[T]
	next int // the chunk after rest: an index into s.full, len(s.full) for s.cur
}

// Peek returns the next element without consuming it; ok is false at the end
// of the stream.
func (r *Cursor[T]) Peek() (v T, ok bool) {
	if len(r.rest) == 0 && !r.advance() {
		return v, false
	}
	return r.rest[0], true
}

// Next consumes and returns the next element; ok is false at the end of the
// stream. It repeats Peek's test rather than calling it, which keeps it
// under the inlining budget.
func (r *Cursor[T]) Next() (v T, ok bool) {
	if len(r.rest) == 0 && !r.advance() {
		return v, false
	}
	v, r.rest = r.rest[0], r.rest[1:]
	return v, true
}

// advance moves rest to the next non-empty chunk, reporting false when none
// is left.
func (r *Cursor[T]) advance() bool {
	for len(r.rest) == 0 {
		switch {
		case r.next < len(r.s.full):
			r.rest = r.s.full[r.next]
		case r.next == len(r.s.full):
			r.rest = r.s.cur
		default:
			return false
		}
		r.next++
	}
	return true
}
