package core_test

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"treejoin/internal/core"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// knnFixture is a 309-tree collection for the bound-ordered KNN: 300 small
// clustered synthetic trees (~16 nodes), three copies of two members (so
// ties sit exactly at the k-th distance), and three large trees (~60 nodes)
// far from everything, whose k-th neighbour lies at TED > 40. lt is the
// shared label table.
func knnFixture(t *testing.T) (ts []*tree.Tree, lt *tree.LabelTable) {
	t.Helper()
	ts = synth.Generate(synth.SyntheticParams(300, 3, 5, 12, 16, 43))
	lt = ts[0].Labels
	for _, i := range []int{10, 10, 10, 137, 137, 137} {
		ts = append(ts, ts[i].Clone())
	}
	big := synth.Generate(synth.Params{
		N: 3, AvgSize: 60, SizeJitter: 0.1, MaxFanout: 4, MaxDepth: 7,
		Labels: 12, Cluster: 1, Seed: 47})
	for _, b := range big {
		ts = append(ts, tree.MustParseBracket(tree.FormatBracket(b), lt))
	}
	return ts, lt
}

// bruteKNN ranks every tree of ts by exact TED to q, ordered by (Dist, Pos),
// and returns the first k.
func bruteKNN(ts []*tree.Tree, q *tree.Tree, k int) []core.Match {
	all := make([]core.Match, len(ts))
	for i, c := range ts {
		all[i] = core.Match{Pos: i, Dist: ted.Distance(c, q)}
	}
	slices.SortFunc(all, func(a, b core.Match) int {
		return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Pos, b.Pos))
	})
	return all[:min(k, len(all))]
}

// TestBoundOrderedKNNOracle: the bound-ordered KNN equals a brute-force
// exact-TED ranking with (Dist, Pos) ties, for in-cluster, isolated,
// duplicated and outside queries, every k from 1 past the collection size,
// and every worker count — and repeated runs return identical output
// whatever the goroutine schedule. A custom Options.Verifier replaces the
// arena kernel without changing the answer.
func TestBoundOrderedKNNOracle(t *testing.T) {
	ts, lt := knnFixture(t)
	n := len(ts)
	type query struct {
		name     string
		q        *tree.Tree
		isolated bool
	}
	queries := []query{
		{"in-cluster", ts[41], false},
		{"duplicated", ts[10], false},
		{"isolated", ts[n-1], true},
		{"isolated2", ts[n-3], true},
		// Outside the corpus: a member's value under a distinct pointer, a
		// small foreign tree, and a large one far from everything.
		{"outside-copy", tree.MustParseBracket(tree.FormatBracket(ts[137]), lt), false},
		{"outside-small", tree.MustParseBracket("{l3{l1{l4}{l0}}{l2}{l5{l6}}}", lt), false},
		{"outside-isolated", tree.MustParseBracket(tree.FormatBracket(
			synth.Generate(synth.Params{N: 1, AvgSize: 70, SizeJitter: 0.1, MaxFanout: 5,
				MaxDepth: 6, Labels: 12, Cluster: 1, Seed: 53})[0]), lt), true},
	}
	ks := []int{1, 3, 5, n, n + 7}
	want := map[string][]core.Match{}
	for _, qc := range queries {
		want[qc.name] = bruteKNN(ts, qc.q, n)
		if qc.isolated && want[qc.name][4].Dist <= 40 {
			t.Fatalf("fixture: %s's 5th neighbour at TED %d, want > 40", qc.name, want[qc.name][4].Dist)
		}
	}
	if w := want["duplicated"]; w[3].Dist != w[2].Dist {
		t.Fatalf("fixture: duplicated query has no tie at its 3rd distance: %v", w[:5])
	}
	check := func(label string, knn *core.KNN) {
		t.Helper()
		for _, qc := range queries {
			for _, k := range ks {
				w := want[qc.name][:min(k, n)]
				if got := knn.Nearest(qc.q, k); !slices.Equal(got, w) {
					t.Fatalf("%s %s k=%d: got %v, want %v", label, qc.name, k, head(got), head(w))
				}
			}
		}
	}
	// Where scheduling could matter — ties at the k-th distance, and long
	// scans whose k-th distance shrinks as workers race — every worker
	// count repeats the query 20 times.
	repeated := []struct {
		name string
		k    int
	}{{"duplicated", 3}, {"isolated", 5}, {"outside-isolated", 3}}
	for _, w := range []int{1, 2, 8} {
		label := fmt.Sprintf("workers=%d", w)
		knn := core.NewKNN(ts, core.Options{Workers: w})
		check(label, knn)
		for _, r := range repeated {
			q := queries[slices.IndexFunc(queries, func(qc query) bool { return qc.name == r.name })].q
			for rep := 0; rep < 20; rep++ {
				if got := knn.Nearest(q, r.k); !slices.Equal(got, want[r.name][:r.k]) {
					t.Fatalf("%s %s k=%d rep %d: got %v, want %v", label, r.name, r.k, rep, got, want[r.name][:r.k])
				}
			}
		}
	}
	var calls atomic.Int64
	custom := core.Options{Workers: 2, Verifier: func(t1, t2 *tree.Tree, tau int) (int, bool) {
		calls.Add(1)
		return ted.DistanceBounded(t1, t2, tau)
	}}
	check("custom verifier", core.NewKNN(ts, custom))
	if calls.Load() == 0 {
		t.Fatal("custom verifier never called")
	}
}

// head trims a match list for failure messages.
func head(ms []core.Match) []core.Match { return ms[:min(len(ms), 8)] }

// countingKNN returns a searcher over ts whose verifier counts its calls.
func countingKNN(ts []*tree.Tree, workers int, calls *atomic.Int64) *core.KNN {
	return core.NewKNN(ts, core.Options{Workers: workers, Verifier: func(t1, t2 *tree.Tree, tau int) (int, bool) {
		calls.Add(1)
		return ted.DistanceBounded(t1, t2, tau)
	}})
}

// TestKNNBoundedWork: an isolated query verifies each tree at most once,
// plus at most ⌈log₂ tauCap⌉ extra doublings for each of the k trees whose
// exact distance it establishes; an in-cluster query on 2000 trees stops
// after verifying a small fraction of the corpus.
func TestKNNBoundedWork(t *testing.T) {
	ts, _ := knnFixture(t)
	n := len(ts)
	maxSize := 0
	for _, c := range ts {
		maxSize = max(maxSize, c.Size())
	}
	for _, q := range []*tree.Tree{ts[n-1], ts[n-3]} {
		for _, k := range []int{1, 5} {
			var calls atomic.Int64
			countingKNN(ts, 2, &calls).Nearest(q, k)
			tauCap := maxSize + q.Size()
			limit := int64(n + k*int(math.Ceil(math.Log2(float64(tauCap)))))
			if calls.Load() > limit {
				t.Errorf("isolated query k=%d: %d verifications, want ≤ %d", k, calls.Load(), limit)
			}
		}
	}

	big := synth.Synthetic(2000, 1)
	var calls atomic.Int64
	knn := countingKNN(big, 2, &calls)
	for _, qi := range []int{0, 517, 1999} {
		calls.Store(0)
		ms := knn.Nearest(big[qi], 3)
		if len(ms) != 3 || ms[0].Dist != 0 {
			t.Fatalf("in-cluster query %d: %v", qi, ms)
		}
		if got := calls.Load(); got*20 >= int64(len(big)) {
			t.Errorf("in-cluster query %d verified %d of %d trees, want < 5%%", qi, got, len(big))
		}
	}
}

// TestKNNCancellation: cancelling from inside the verifier mid-scan returns
// context.Canceled with nil matches and leaves no worker behind; an expired
// context errors even when k covers the whole collection.
func TestKNNCancellation(t *testing.T) {
	ts, _ := knnFixture(t)
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		knn := core.NewKNN(ts, core.Options{Workers: workers, Verifier: func(t1, t2 *tree.Tree, tau int) (int, bool) {
			if calls.Add(1) == 40 {
				cancel()
			}
			return ted.DistanceBounded(t1, t2, tau)
		}})
		ms, err := knn.NearestCtx(ctx, ts[len(ts)-1], 5)
		cancel()
		if !errors.Is(err, context.Canceled) || ms != nil {
			t.Fatalf("workers=%d: cancelled mid-scan: %v, %v; want nil, context.Canceled", workers, ms, err)
		}
		if calls.Load() >= int64(len(ts)) {
			t.Errorf("workers=%d: %d verifications after cancelling at 40", workers, calls.Load())
		}
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	knn := core.NewKNN(ts, core.Options{})
	for _, k := range []int{3, len(ts), len(ts) + 7} {
		if ms, err := knn.NearestCtx(expired, ts[0], k); !errors.Is(err, context.DeadlineExceeded) || ms != nil {
			t.Errorf("expired context k=%d: %d matches, err %v", k, len(ms), err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Errorf("goroutine leak: %d before, %d after", before, now)
	}
}
