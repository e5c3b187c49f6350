// Package interp is MosaicSim-Go's Dynamic Trace Generator: a functional
// interpreter for the IR that natively executes kernels over a byte-addressed
// memory image and records the control-flow path and memory-address traces
// the timing simulator replays (§II-A of the paper).
//
// SPMD execution follows the paper's model (§II-B): one kernel function runs
// on T tiles, each querying its tile ID and the tile count. Tiles execute
// cooperatively in a deterministic round-robin so inter-tile send/recv
// (e.g. Decoupled Access/Execute slices) make progress without data races.
package interp

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"mosaicsim/internal/ir"
)

// Memory is the simulated flat, little-endian, byte-addressed memory image.
// Address 0 is kept unmapped so null pointers fault.
type Memory struct {
	data []byte
	brk  uint64
	hi   uint64 // one past the highest byte ever stored (bounds pooled-reuse zeroing)
}

// bufPool recycles image backing buffers across runs. Every buffer in the
// pool is entirely zero: Release clears the stored-to prefix before putting a
// buffer back, and bytes past a buffer's previous length were never written.
var bufPool sync.Pool

// NewMemory returns a memory image of the given size in bytes with the
// allocation pointer past a small null guard page. Images are recycled
// through an internal pool when callers Release them; a trace-generation
// harness that churns through large images otherwise spends a significant
// share of its time zeroing fresh allocations.
func NewMemory(size int64) *Memory {
	if size < 8192 {
		size = 8192
	}
	if v := bufPool.Get(); v != nil {
		if buf := v.([]byte); int64(cap(buf)) >= size {
			return &Memory{data: buf[:size], brk: 4096}
		}
		// Too small for this request: drop it and let the GC take it.
	}
	return &Memory{data: make([]byte, size), brk: 4096}
}

// Release returns the image's backing buffer to the pool after zeroing the
// written prefix, detaching it from the Memory (further accesses fault). Call
// it only once the image's contents are dead — traces record addresses, not
// data, so trace generators can release as soon as result checks pass.
func (m *Memory) Release() {
	if m.data == nil {
		return
	}
	clear(m.data[:m.hi])
	buf := m.data
	m.data = nil
	bufPool.Put(buf) //nolint:staticcheck // slice header boxing is two words, not the buffer
}

// Size returns the total size of the image in bytes.
func (m *Memory) Size() int64 { return int64(len(m.data)) }

// Alloc reserves size bytes aligned to align and returns the base address.
// It panics if the image is exhausted; sizing is a harness decision.
func (m *Memory) Alloc(size, align int64) uint64 {
	if align <= 0 {
		align = 8
	}
	a := (m.brk + uint64(align) - 1) &^ (uint64(align) - 1)
	if a+uint64(size) > uint64(len(m.data)) {
		panic(fmt.Sprintf("interp: out of simulated memory (want %d bytes at %d, have %d)", size, a, len(m.data)))
	}
	m.brk = a + uint64(size)
	return a
}

// AllocGlobal reserves storage for a module global, cacheline aligned.
func (m *Memory) AllocGlobal(g *ir.Global) uint64 { return m.Alloc(g.ByteSize(), 64) }

// check faults an access that touches the null page or runs past the image.
// Every load, store and atomic of a traced kernel goes through it.
func (m *Memory) check(addr uint64, size int64) {
	if addr < 4096 || addr+uint64(size) > uint64(len(m.data)) {
		m.fault(addr, size)
	}
}

// fault is out of line so that check inlines into its callers.
func (m *Memory) fault(addr uint64, size int64) {
	panic(fmt.Sprintf("interp: memory access out of bounds: addr=%#x size=%d", addr, size))
}

// window checks the size bytes at addr once and returns them; store marks
// them written, as StoreScalar would byte by byte.
func (m *Memory) window(addr uint64, size int64, store bool) []byte {
	m.check(addr, size)
	if end := addr + uint64(size); store && end > m.hi {
		m.hi = end
	}
	return m.data[addr : addr+uint64(size)]
}

// LoadScalar reads a value of type ty at addr, returning its raw 64-bit
// pattern (floats use the IEEE bit patterns of their width).
func (m *Memory) LoadScalar(addr uint64, ty ir.Type) uint64 {
	m.check(addr, ty.Size())
	switch ty.Size() {
	case 1:
		return uint64(m.data[addr])
	case 4:
		return uint64(binary.LittleEndian.Uint32(m.data[addr:]))
	case 8:
		return binary.LittleEndian.Uint64(m.data[addr:])
	}
	panic("interp: load of void")
}

// StoreScalar writes the raw 64-bit pattern bits as a value of type ty.
func (m *Memory) StoreScalar(addr uint64, ty ir.Type, bits uint64) {
	m.check(addr, ty.Size())
	if end := addr + uint64(ty.Size()); end > m.hi {
		m.hi = end
	}
	switch ty.Size() {
	case 1:
		m.data[addr] = byte(bits)
	case 4:
		binary.LittleEndian.PutUint32(m.data[addr:], uint32(bits))
	case 8:
		binary.LittleEndian.PutUint64(m.data[addr:], bits)
	default:
		panic("interp: store of void")
	}
}

// Typed convenience accessors used by harnesses, workload generators, and
// functional accelerator implementations. Each checks its bytes once, like
// LoadScalar and StoreScalar, without dispatching on a type: workloads
// generate and check their inputs in place, element by element.

// ReadF64 reads a float64 at addr.
func (m *Memory) ReadF64(addr uint64) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(m.window(addr, 8, false)))
}

// WriteF64 writes a float64 at addr.
func (m *Memory) WriteF64(addr uint64, v float64) {
	binary.LittleEndian.PutUint64(m.window(addr, 8, true), math.Float64bits(v))
}

// ReadF32 reads a float32 at addr.
func (m *Memory) ReadF32(addr uint64) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(m.window(addr, 4, false)))
}

// WriteF32 writes a float32 at addr.
func (m *Memory) WriteF32(addr uint64, v float32) {
	binary.LittleEndian.PutUint32(m.window(addr, 4, true), math.Float32bits(v))
}

// ReadI64 reads an int64 at addr.
func (m *Memory) ReadI64(addr uint64) int64 {
	return int64(binary.LittleEndian.Uint64(m.window(addr, 8, false)))
}

// WriteI64 writes an int64 at addr.
func (m *Memory) WriteI64(addr uint64, v int64) {
	binary.LittleEndian.PutUint64(m.window(addr, 8, true), uint64(v))
}

// ReadI32 reads an int32 at addr.
func (m *Memory) ReadI32(addr uint64) int32 {
	return int32(binary.LittleEndian.Uint32(m.window(addr, 4, false)))
}

// WriteI32 writes an int32 at addr.
func (m *Memory) WriteI32(addr uint64, v int32) {
	binary.LittleEndian.PutUint32(m.window(addr, 4, true), uint32(v))
}

// AllocF64 allocates and fills a float64 array, returning its base address.
func (m *Memory) AllocF64(vals []float64) uint64 {
	base := m.Alloc(int64(len(vals))*8, 64)
	w := m.window(base, int64(len(vals))*8, true)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(w[8*i:], math.Float64bits(v))
	}
	return base
}

// AllocF32 allocates and fills a float32 array, returning its base address.
func (m *Memory) AllocF32(vals []float32) uint64 {
	base := m.Alloc(int64(len(vals))*4, 64)
	w := m.window(base, int64(len(vals))*4, true)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(w[4*i:], math.Float32bits(v))
	}
	return base
}

// AllocI64 allocates and fills an int64 array, returning its base address.
func (m *Memory) AllocI64(vals []int64) uint64 {
	base := m.Alloc(int64(len(vals))*8, 64)
	w := m.window(base, int64(len(vals))*8, true)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(w[8*i:], uint64(v))
	}
	return base
}

// AllocI32 allocates and fills an int32 array, returning its base address.
func (m *Memory) AllocI32(vals []int32) uint64 {
	base := m.Alloc(int64(len(vals))*4, 64)
	w := m.window(base, int64(len(vals))*4, true)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(w[4*i:], uint32(v))
	}
	return base
}
