package trace

import (
	"reflect"
	"sync"
)

// Chunks is an append-only event stream stored as a list of chunks: the
// first holds minChunk elements, each later one twice the last up to
// maxChunk, and a filled chunk is never moved. Slice concatenates them once
// into an exact-size slice, so recording n events writes each once, copies it
// once and allocates about 2n — against the ~5n a single slice costs as
// append regrows it. The trace generator records through it and Read decodes
// through it; the zero value is ready to use.
type Chunks[T any] struct {
	full [][]T // filled chunks, oldest first
	cur  []T   // the chunk being filled
}

const (
	minChunk = 256      // elements: 64 tile traces of a small kernel stay small
	maxChunk = 64 << 10 // elements: 1 MB of MemEvents
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
	if n == maxChunk {
		if ch, _ := recycled[T]().Get().(*[]T); ch != nil {
			c.cur = (*ch)[:0]
			return
		}
	}
	c.cur = make([]T, 0, n)
}

// pools recycles full-size chunks once they have been concatenated — across
// streams, runs and goroutines: one sync.Pool of *[]T per element type T.
var pools sync.Map

func recycled[T any]() *sync.Pool {
	key := reflect.TypeFor[T]()
	if p, ok := pools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := pools.LoadOrStore(key, new(sync.Pool))
	return p.(*sync.Pool)
}

// Slice returns the stream as one exact-size slice (nil when empty) and
// empties c, which keeps its newest chunk for the next stream.
func (c *Chunks[T]) Slice() []T {
	n := len(c.cur)
	for _, ch := range c.full {
		n += len(ch)
	}
	if n == 0 {
		return nil
	}
	out := make([]T, 0, n)
	for _, ch := range c.full {
		out = append(out, ch...)
		if cap(ch) == maxChunk {
			recycled[T]().Put(&ch)
		}
	}
	out = append(out, c.cur...)
	c.full, c.cur = nil, c.cur[:0]
	return out
}
