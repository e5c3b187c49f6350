// Package mem implements MosaicSim-Go's memory hierarchy (§V of the paper):
// configurable private/shared timing caches (write-back, write-allocate,
// MSHR coalescing, stream prefetcher) and two DRAM models — SimpleDRAM
// (minimum latency + epoch bandwidth throttling) and a cycle-level banked
// model standing in for DRAMSim2.
//
// The hierarchy is a timing model only: it tracks address tags, never data
// (§V-A: "MosaicSim is a timing simulator and therefore need not hold actual
// data in the caches; the address tags suffice").
package mem

import "sync"

// Kind classifies a memory request.
type Kind uint8

// Request kinds.
const (
	Read Kind = iota
	Write
	Atomic // read-modify-write; fills like a read, dirties like a write
	Prefetch
	Writeback
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	case Atomic:
		return "atomic"
	case Prefetch:
		return "prefetch"
	case Writeback:
		return "writeback"
	}
	return "kind?"
}

// isDemand reports whether the request has a consumer waiting on it.
func (k Kind) isDemand() bool { return k == Read || k == Write || k == Atomic }

// Request is one memory access flowing through the hierarchy. Done (if
// non-nil) is invoked exactly once with the completion cycle.
type Request struct {
	Addr uint64
	Size int
	Kind Kind
	Done func(now int64)

	// pooled marks requests drawn from the package pool; externally
	// constructed requests are never recycled.
	pooled bool
}

// HorizonNone is the NextEvent result meaning "no self-scheduled event":
// the component's state cannot change until some other component acts on it.
const HorizonNone = int64(1) << 62

// Level is a stage of the hierarchy that accepts requests.
type Level interface {
	// Access enqueues a request arriving at cycle now.
	Access(req *Request, now int64)
	// Tick advances the level to cycle now, completing due requests.
	Tick(now int64)
	// Busy reports whether any request is still in flight at this level.
	Busy() bool
	// NextEvent returns a lower bound on the next cycle at which this level
	// can change observable state on its own (queued work becoming due),
	// or HorizonNone when it has no self-scheduled work. Changes triggered
	// by other components (a new Access) are accounted by their initiator.
	NextEvent(now int64) int64
	// Events returns a monotone counter incremented on every observable
	// state change (request accepted, processed, or completed). Per-cycle
	// stall accounting (e.g. bandwidth throttling) is NOT an event: it is
	// replayed arithmetically over skipped cycles. The levels of one
	// Hierarchy share a counter, so each reports the hierarchy's total.
	Events() int64
}

// reqPool recycles Requests created inside the hierarchy (demand accesses,
// line fills, writebacks, prefetches). It is a sync.Pool because requests
// cross level boundaries and concurrent simulations share the package.
var reqPool = sync.Pool{New: func() any { return new(Request) }}

// getRequest draws a recyclable request from the pool.
func getRequest() *Request {
	r := reqPool.Get().(*Request)
	r.pooled = true
	return r
}

// putRequest recycles a finished pool-drawn request; externally constructed
// requests (tests, library callers) pass through untouched.
func putRequest(r *Request) {
	if !r.pooled {
		return
	}
	*r = Request{}
	reqPool.Put(r)
}
