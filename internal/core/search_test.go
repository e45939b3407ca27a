package core_test

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"treejoin/internal/core"
	"treejoin/internal/engine"
	"treejoin/internal/synth"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// TestSearchMatchesBruteForce: Search(q) equals a linear scan with exact TED,
// for queries both from inside and outside the collection, across thresholds.
func TestSearchMatchesBruteForce(t *testing.T) {
	ts := synth.Generate(synth.Params{
		N: 80, AvgSize: 24, SizeJitter: 0.4, MaxFanout: 4, MaxDepth: 8,
		Labels: 10, DepthBias: 0, Cluster: 4, Decay: 0.06, Seed: 17})
	queries := synth.Generate(synth.Params{
		N: 15, AvgSize: 24, SizeJitter: 0.4, MaxFanout: 4, MaxDepth: 8,
		Labels: 10, DepthBias: 0, Cluster: 1, Decay: 0, Seed: 18})
	// Queries must share the collection's label table; rebuild them there.
	lt := ts[0].Labels
	rebuilt := make([]*tree.Tree, 0, len(queries)+5)
	for _, q := range queries {
		rebuilt = append(rebuilt, tree.MustParseBracket(tree.FormatBracket(q), lt))
	}
	rebuilt = append(rebuilt, ts[3], ts[40]) // members of the collection
	rebuilt = append(rebuilt, tree.MustParseBracket("{l0}", lt))

	for tau := 0; tau <= 3; tau++ {
		ix := core.NewIndex(ts, core.Options{Tau: tau})
		for qi, q := range rebuilt {
			got := ix.Search(q)
			var want []core.Match
			for i, c := range ts {
				if d := ted.Distance(c, q); d <= tau {
					want = append(want, core.Match{Pos: i, Dist: d})
				}
			}
			if len(got) != len(want) {
				t.Fatalf("τ=%d q%d: %d matches, want %d (%v vs %v)", tau, qi, len(got), len(want), got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("τ=%d q%d: match %d = %v, want %v", tau, qi, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSearchKNNQueryOutsideCorpus: Search and KNN with query trees that are
// not collection members — including one parsed from a member's text, equal
// in value but a distinct pointer — match an exhaustive scan with the exact
// TED, under the default verifier (with and without an artifact cache, so
// collection views are both cached and built per candidate) and under a
// custom Options.Verifier, the hook perfbench's replay instruments.
// Regression test: the old hybrid screen looked the query's traversal
// sequences up in a collection-only map, treated the miss as empty
// sequences, and pruned every candidate.
func TestSearchKNNQueryOutsideCorpus(t *testing.T) {
	ts := synth.Generate(synth.Params{
		N: 50, AvgSize: 20, SizeJitter: 0.4, MaxFanout: 4, MaxDepth: 8,
		Labels: 8, DepthBias: 0, Cluster: 4, Decay: 0.08, Seed: 23})
	lt := ts[0].Labels
	queries := []*tree.Tree{
		tree.MustParseBracket(tree.FormatBracket(ts[7]), lt), // near-member, distinct pointer
		tree.MustParseBracket("{l0{l1}{l2}}", lt),
		tree.MustParseBracket("{l3{l1{l4}{l0}}{l2}{l5{l6}}}", lt),
	}
	var calls atomic.Int64
	custom := func(t1, t2 *tree.Tree, tau int) (int, bool) {
		calls.Add(1)
		return ted.DistanceBounded(t1, t2, tau)
	}
	variants := []struct {
		name  string
		opts  core.Options
		cache *engine.Cache
	}{
		{"default", core.Options{}, nil},
		{"default+cache", core.Options{}, engine.NewCache()},
		{"custom", core.Options{Verifier: custom}, engine.NewCache()},
	}
	const k = 5
	for _, v := range variants {
		knn := core.NewKNNCached(ts, v.opts, v.cache, core.DefaultIndexCacheCap)
		for qi, q := range queries {
			var all []core.Match
			for i, c := range ts {
				all = append(all, core.Match{Pos: i, Dist: ted.Distance(c, q)})
			}
			for tau := 0; tau <= 3; tau++ {
				var want []core.Match
				for _, m := range all {
					if m.Dist <= tau {
						want = append(want, m)
					}
				}
				got := knn.IndexAt(tau).Search(q)
				if !slices.Equal(got, want) {
					t.Fatalf("%s τ=%d q%d: Search %v, want %v", v.name, tau, qi, got, want)
				}
			}
			slices.SortFunc(all, func(a, b core.Match) int {
				return cmp.Or(cmp.Compare(a.Dist, b.Dist), cmp.Compare(a.Pos, b.Pos))
			})
			if got := knn.Nearest(q, k); !slices.Equal(got, all[:k]) {
				t.Fatalf("%s q%d: KNN %v, want %v", v.name, qi, got, all[:k])
			}
		}
	}
	if calls.Load() == 0 {
		t.Fatal("custom verifier never called")
	}
}

func TestSearchConcurrent(t *testing.T) {
	ts := synth.Synthetic(60, 19)
	ix := core.NewIndex(ts, core.Options{Tau: 2})
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 20; i++ {
				q := ts[rng.Intn(len(ts))]
				ms := ix.Search(q)
				found := false
				for _, m := range ms {
					if ts[m.Pos] == q && m.Dist == 0 {
						found = true
					}
				}
				if !found {
					errs <- "query tree did not match itself"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestSearchTinyTreesAndEmpty(t *testing.T) {
	lt := tree.NewLabelTable()
	ix := core.NewIndex(nil, core.Options{Tau: 2})
	if got := ix.Search(tree.MustParseBracket("{a}", lt)); len(got) != 0 {
		t.Fatalf("empty index returned %v", got)
	}
	ts := []*tree.Tree{
		tree.MustParseBracket("{a}", lt),
		tree.MustParseBracket("{a{b}}", lt),
		tree.MustParseBracket("{x{y{z{w{v{u}}}}}}", lt),
	}
	ix = core.NewIndex(ts, core.Options{Tau: 1})
	got := ix.Search(tree.MustParseBracket("{a{c}}", lt))
	if len(got) != 2 || got[0].Pos != 0 || got[1].Pos != 1 {
		t.Fatalf("search = %v", got)
	}
	if ix.Len() != 3 || ix.Tree(2) != ts[2] {
		t.Fatal("accessors wrong")
	}
}
