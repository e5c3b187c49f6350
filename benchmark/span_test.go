package main

import (
	"testing"
	"time"
)

// A synthetic tree with the three shapes that break a naive "duration minus
// children" rule: nesting, children that overlap each other, and a
// zero-length child.
//
//	root      [0,100]
//	  a       [10,40]
//	    a1    [15,25]
//	  b       [30,60]   overlaps a on [30,40]
//	  z       [70,70]   zero length
//	  late    [90,120]  runs past its parent
func syntheticSpans() []span {
	return []span{
		{ID: 0, Parent: -1, Op: 7, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 7, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 1, Op: 7, Name: "a1", Start: 15, End: 25},
		{ID: 3, Parent: 0, Op: 7, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 0, Op: 7, Name: "z", Start: 70, End: 70},
		{ID: 5, Parent: 0, Op: 7, Name: "late", Start: 90, End: 120},
	}
}

func TestSelfTimes(t *testing.T) {
	self := selfTimes(syntheticSpans())
	want := map[int]int64{
		0: 100 - (50 + 10), // children cover [10,60] once and [90,100] after clipping
		1: 30 - 10,
		2: 10,
		3: 30,
		4: 0,
		5: 30,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestSelfCoverage(t *testing.T) {
	// A laminar tree (children inside parents, siblings disjoint) sums to
	// exactly its root.
	laminar := []span{
		{ID: 0, Parent: -1, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Op: 1, Name: "build", Start: 0, End: 20},
		{ID: 2, Parent: 0, Op: 1, Name: "run", Start: 20, End: 95},
		{ID: 3, Parent: 2, Op: 1, Name: "inner", Start: 30, End: 30},
	}
	if lo, hi := selfCoverage(laminar); lo != 1 || hi != 1 {
		t.Errorf("laminar tree covers %v..%v of its root, want exactly 1", lo, hi)
	}
	// Overlapping siblings are counted once in the parent but in full in
	// themselves, so the sum overshoots and the coverage shows it.
	if _, hi := selfCoverage(syntheticSpans()); hi <= 1 {
		t.Errorf("overlapping tree covers at most %v of its root, want more than 1", hi)
	}
}

func TestRecorder(t *testing.T) {
	var off *recorder // tracing off: every call is a no-op
	id := off.begin("x", -1, off.newOp())
	off.end(id)
	if err := off.timed("y", id, 0, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if got := off.snapshot(); got != nil {
		t.Fatalf("nil recorder recorded %v", got)
	}

	rec := newRecorder()
	op := rec.newOp()
	root := rec.begin("op", -1, op)
	_ = rec.timed("child", root, op, func() error { time.Sleep(time.Millisecond); return nil })
	known := rec.add("known", root, op, rec.t0.Add(time.Second), rec.t0.Add(3*time.Second))
	rec.end(root)
	spans := rec.snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	if spans[known].dur() != int64(2*time.Second) {
		t.Errorf("span with given bounds lasts %d ns, want 2s", spans[known].dur())
	}
	if c := spans[1]; c.Parent != root || c.Op != op || c.dur() < int64(time.Millisecond) {
		t.Errorf("child span %+v: want parent %d, op %d, at least 1ms", c, root, op)
	}
	if rec.newOp() == op {
		t.Error("two ops share an identifier")
	}
}

func TestTraceOverhead(t *testing.T) {
	passes := func(secs ...float64) []passResult {
		var ps []passResult
		for _, s := range secs {
			ps = append(ps, passResult{Wall: time.Duration(s * float64(time.Second))})
		}
		return ps
	}
	// Medians, so one slow pass on either side does not move the answer.
	got := traceOverhead(passes(1.0, 1.0, 5.0), passes(1.1, 1.1, 0.2))
	if got < 0.0999 || got > 0.1001 {
		t.Errorf("overhead of 1.1s traced over 1.0s untraced = %v, want 0.1", got)
	}
	if got := traceOverhead(nil, passes(1)); got != 0 {
		t.Errorf("overhead with no untraced pass = %v, want 0", got)
	}
}
