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

// Waiter is told when a demand request completes: MemDone gets the request's
// Tag and the completion cycle.
type Waiter interface {
	MemDone(tag, at int64)
}

// Request is one memory access flowing through the hierarchy. Its Waiter (if
// non-nil) is called exactly once, with Tag and the completion cycle.
type Request struct {
	Addr   uint64
	Size   int
	Waiter Waiter
	Tag    int64
	Kind   Kind

	// fill is the cache a line-fill request installs its line (Addr >> its
	// shift) into, nil for every other request; prefetched marks a fill a
	// prefetch started.
	prefetched bool
	fill       *Cache
	// next chains the waiters of one MSHR, or the finished requests of a list.
	next *Request
	// free is the list that made the request and takes it back once it
	// finishes; nil for a request built outside the package, never recycled.
	free *reqList
}

// Finish completes the request at cycle now: a line fill installs its line,
// any other request tells its Waiter. The request is then recycled, so the
// caller must not touch it again.
func (r *Request) Finish(now int64) {
	if c := r.fill; c != nil {
		c.fill(r.Addr>>c.shift, r.prefetched, now)
	} else if r.Waiter != nil {
		r.Waiter.MemDone(r.Tag, now)
	}
	if l := r.free; l != nil {
		*r = Request{free: l, next: l.head}
		l.head = r
	}
}

// reqList recycles the requests a hierarchy creates (demand accesses, line
// fills, writebacks, prefetches), chained through their next fields. Every
// level of one Hierarchy shares its list; a Cache built alone has its own. A
// hierarchy is stepped by one goroutine, so the list needs no lock.
type reqList struct{ head *Request }

// get pops a finished request. An empty list is refilled with a slab of
// requests it owns, one allocation for the lot.
func (l *reqList) get() *Request {
	if l.head == nil {
		slab := make([]Request, 32)
		for i := range slab {
			slab[i] = Request{free: l, next: l.head}
			l.head = &slab[i]
		}
	}
	r := l.head
	l.head, r.next = r.next, nil
	return r
}

// HorizonNone is the NextEvent result meaning "no self-scheduled event":
// the component's state cannot change until some other component acts on it.
const HorizonNone = int64(1) << 62

// Level is a stage of the hierarchy that accepts requests. A level completes
// a request only through (*Request).Finish, after which it no longer holds it.
type Level interface {
	// Access enqueues a request arriving at cycle now.
	Access(req *Request, now int64)
	// Tick advances the level to cycle now, completing due requests.
	Tick(now int64)
	// Busy reports whether any request is still in flight at this level.
	Busy() bool
}

// DRAM is the level below the caches. A cache's horizon is its due slot in
// its Hierarchy; a DRAM model computes its own.
type DRAM interface {
	Level
	// NextEvent returns a lower bound on the next cycle at which the model
	// can change observable state on its own (queued work becoming due),
	// or HorizonNone when it has no self-scheduled work. Changes triggered
	// by other components (a new Access) are accounted by their initiator.
	NextEvent(now int64) int64
}
