package main

import (
	"math"
	"testing"
)

func TestUnionLen(t *testing.T) {
	for _, c := range []struct {
		ivs    [][2]int64
		lo, hi int64
		want   int64
	}{
		{nil, 0, 100, 0},
		{[][2]int64{{10, 20}}, 0, 100, 10},
		{[][2]int64{{10, 30}, {20, 40}}, 0, 100, 30},           // overlap counted once
		{[][2]int64{{20, 40}, {10, 30}, {50, 60}}, 0, 100, 40}, // unsorted, with a gap
		{[][2]int64{{10, 30}, {12, 14}}, 0, 100, 20},           // nested
		{[][2]int64{{-10, 30}, {90, 150}}, 0, 100, 40},         // clipped to the parent
		{[][2]int64{{10, 20}, {20, 30}}, 0, 100, 20},           // touching
		{[][2]int64{{200, 300}}, 0, 100, 0},                    // outside
	} {
		if got := unionLen(c.ivs, c.lo, c.hi); got != c.want {
			t.Errorf("unionLen(%v, %d, %d) = %d, want %d", c.ivs, c.lo, c.hi, got, c.want)
		}
	}
}

// Two verify workers run overlapping child spans under one engine span, as
// under parallel verification: self time subtracts their union, not their
// sum.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "engine", Start: 10, End: 90},
		{ID: 2, Parent: 1, Name: "verify", Start: 20, End: 60},
		{ID: 3, Parent: 1, Name: "verify", Start: 30, End: 70},
		{ID: 4, Parent: 1, Name: "verify", Start: 40, End: 50},
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 20, 1: 30, 2: 40, 3: 40, 4: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self(%d) = %d, want %d", id, self[id], w)
		}
	}
	if f := unattributedFrac(spans); math.Abs(f-0.2) > 1e-12 {
		t.Errorf("unattributedFrac = %v, want 0.2", f)
	}
	byName := selfByName(spans)
	if byName["verify"] != 90e-6 {
		t.Errorf("verify self = %v ms, want 9e-05", byName["verify"])
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", -1, 7)
	child := tr.begin("call", root, 7)
	tr.end(child)
	open := tr.begin("never-closed", root, 7)
	_ = open
	tr.end(root)
	spans := tr.snapshot()
	if len(spans) != 2 {
		t.Fatalf("snapshot kept %d spans, want the 2 closed ones", len(spans))
	}
	for _, s := range spans {
		if s.Req != 7 || (s.ID != root && s.Parent != root) {
			t.Errorf("span %+v: wrong request or parent", s)
		}
	}
	var nilTr *tracer
	if id := nilTr.begin("x", -1, 1); id != -1 {
		t.Errorf("nil tracer begin = %d", id)
	}
	nilTr.end(0)
}
