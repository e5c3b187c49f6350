package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run. Spans of one op share Op; the
// op's root span has Parent -1. Times are nanoseconds since the recorder
// started, so spans built from a daemon's wall-clock timestamps and spans
// taken with the client's clock sit on one axis.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the spans of a traced run in memory until the run ends. A
// nil *recorder records nothing, which is how untraced passes run the same
// code without paying for it.
type recorder struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	nops  int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newOp hands out the identifier the spans of one op share.
func (r *recorder) newOp() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nops++
	return r.nops - 1
}

// begin opens a span now and returns its id for end and for children.
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return -1
	}
	return r.add(name, parent, op, time.Now(), time.Time{})
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// add records a span whose bounds are already known (a job's queue wait,
// rebuilt from the daemon's timestamps).
func (r *recorder) add(name string, parent, op int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	s := span{Parent: parent, Op: op, Name: name, Start: start.Sub(r.t0).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(r.t0).Nanoseconds()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
	return s.ID
}

// timed runs f inside a span.
func (r *recorder) timed(name string, parent, op int, f func() error) error {
	id := r.begin(name, parent, op)
	err := f()
	r.end(id)
	return err
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its children cover. Children are clipped to the parent and
// overlapping children count once, so the self times of a tree never sum to
// more than its root when children stay inside their parents.
func selfTimes(spans []span) map[int]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals inside p.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	edge := p.Start
	for _, k := range kids {
		lo, hi := max(k.Start, edge), min(k.End, p.End)
		if hi > lo {
			total += hi - lo
			edge = hi
		}
	}
	return total
}

// selfCoverage reports, over all ops, the smallest and largest ratio of the
// summed self times of an op's spans to the wall time of its root span. Both
// are 1 when every child lies inside its parent; a value far from 1 means a
// span was attached to the wrong parent or a clock disagreed.
func selfCoverage(spans []span) (lo, hi float64) {
	self := selfTimes(spans)
	sum := map[int]int64{}
	root := map[int]int64{}
	for _, s := range spans {
		sum[s.Op] += self[s.ID]
		if s.Parent < 0 {
			root[s.Op] += s.dur()
		}
	}
	lo, hi = 1, 1
	first := true
	for op, r := range root {
		if r <= 0 {
			continue
		}
		c := float64(sum[op]) / float64(r)
		if first {
			lo, hi, first = c, c, false
		}
		lo, hi = min(lo, c), max(hi, c)
	}
	return lo, hi
}

// byName groups span durations (seconds) by span name.
func byName(spans []span) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur())/1e9)
	}
	return out
}

// writeSpans writes the span file a traced run leaves behind.
func writeSpans(path string, host hostInfo, spans []span) error {
	self := selfTimes(spans)
	type row struct {
		span
		Self int64 `json:"self_ns"`
	}
	rows := make([]row, len(spans))
	for i, s := range spans {
		rows[i] = row{span: s, Self: self[s.ID]}
	}
	b, err := json.Marshal(struct {
		Host  hostInfo `json:"host"`
		Spans []row    `json:"spans"`
	}{host, rows})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
