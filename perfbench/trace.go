package main

import (
	"sort"
	"sync"
	"time"
)

// span is one traced interval: an operation (a root span, parent -1) or a
// call into one layer made on its behalf. Times are nanoseconds since the
// tracer started. Spans of one operation share req.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (tr *tracer) begin(name string, parent int, req int64) int {
	if tr == nil {
		return -1
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans)
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (tr *tracer) end(id int) {
	if tr == nil || id < 0 {
		return
	}
	now := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	tr.spans[id].End = now
	tr.mu.Unlock()
}

// snapshot returns a copy of the closed spans.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]span, 0, len(tr.spans))
	for _, s := range tr.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// unionLen returns the total length covered by the intervals, each clipped
// to [lo, hi]. Overlapping intervals — children running on parallel
// workers — are counted once.
func unionLen(ivs [][2]int64, lo, hi int64) int64 {
	clipped := make([][2]int64, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	open := false
	for _, iv := range clipped {
		if !open || iv[0] > curB {
			if open {
				total += curB - curA
			}
			curA, curB, open = iv[0], iv[1], true
			continue
		}
		curB = max(curB, iv[1])
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the union of
// its children's intervals.
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - unionLen(kids[s.ID], s.Start, s.End)
	}
	return out
}

// unattributedFrac is the share of root-span time that no child span
// covers: time an operation spent outside every instrumented layer call.
func unattributedFrac(spans []span) float64 {
	self := selfTimes(spans)
	var rootTotal, rootSelf int64
	for _, s := range spans {
		if s.Parent < 0 {
			rootTotal += s.dur()
			rootSelf += self[s.ID]
		}
	}
	if rootTotal == 0 {
		return 0
	}
	return float64(rootSelf) / float64(rootTotal)
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += float64(self[s.ID]) / 1e6
	}
	return out
}
