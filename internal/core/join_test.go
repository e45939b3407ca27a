package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"treejoin/internal/baseline"
	"treejoin/internal/core"
	"treejoin/internal/sim"
	"treejoin/internal/synth"
	"treejoin/internal/tree"
)

// testCollection is one dataset for the oracle-equality suite.
type testCollection struct {
	name string
	ts   []*tree.Tree
}

// testCollections builds a spread of shapes: the paper's dataset profiles at
// small scale plus adversarial collections (duplicates, chains, stars, tiny
// trees) that exercise the join's edge paths.
func testCollections(short bool) []testCollection {
	n := 48
	if short {
		n = 24
	}
	flat := synth.Generate(synth.Params{
		N: n, AvgSize: 24, SizeJitter: 0.3, MaxFanout: 8, MaxDepth: 4,
		Labels: 12, DepthBias: -0.3, Cluster: 4, Decay: 0.04, Seed: 7})
	deep := synth.Generate(synth.Params{
		N: n, AvgSize: 22, SizeJitter: 0.3, MaxFanout: 3, MaxDepth: 20,
		Labels: 30, DepthBias: 0.5, Cluster: 4, Decay: 0.05, Seed: 8})
	binary := synth.Generate(synth.Params{
		N: n, AvgSize: 20, SizeJitter: 0.3, MaxFanout: 2, MaxDepth: 18,
		Labels: 4, DepthBias: 0.4, Cluster: 3, Decay: 0.06, Seed: 9})
	sparse := synth.Generate(synth.Params{
		N: n, AvgSize: 26, SizeJitter: 0.4, MaxFanout: 3, MaxDepth: 5,
		Labels: 20, DepthBias: 0, Cluster: 1, Decay: 0, Seed: 10})

	lt := tree.NewLabelTable()
	var weird []*tree.Tree
	// Duplicates.
	for i := 0; i < 6; i++ {
		weird = append(weird, tree.MustParseBracket("{a{b{c}}{d}}", lt))
	}
	// Chains of several lengths, tiny trees, stars.
	for n := 1; n <= 12; n++ {
		b := tree.NewBuilder(lt)
		cur := b.Root("c")
		for i := 1; i < n; i++ {
			cur = b.Child(cur, "c")
		}
		weird = append(weird, b.MustBuild())
	}
	for n := 2; n <= 12; n += 2 {
		b := tree.NewBuilder(lt)
		r := b.Root("s")
		for i := 1; i < n; i++ {
			b.Child(r, "s")
		}
		weird = append(weird, b.MustBuild())
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 16; i++ {
		sz := 1 + rng.Intn(8)
		b := tree.NewBuilder(lt)
		b.Root(string(rune('a' + rng.Intn(3))))
		for j := 1; j < sz; j++ {
			b.Child(int32(rng.Intn(j)), string(rune('a'+rng.Intn(3))))
		}
		weird = append(weird, b.MustBuild())
	}

	return []testCollection{
		{"flat", flat},
		{"deep", deep},
		{"binary", binary},
		{"sparse", sparse},
		{"adversarial", weird},
	}
}

func pairsEqual(a, b []sim.Pair) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].I != b[i].I || a[i].J != b[i].J || a[i].Dist != b[i].Dist {
			return false
		}
	}
	return true
}

func pairSet(ps []sim.Pair) map[[2]int]int {
	m := make(map[[2]int]int, len(ps))
	for _, p := range ps {
		m[[2]int{p.I, p.J}] = p.Dist
	}
	return m
}

// TestJoinMethodsAgreeWithOracle is the module's central invariant: PartSJ in
// every sound configuration, STR, and SET return exactly the brute-force
// result set on every collection shape and threshold.
func TestJoinMethodsAgreeWithOracle(t *testing.T) {
	cols := testCollections(testing.Short())
	maxTau := 4
	if testing.Short() {
		maxTau = 3
	}
	for _, col := range cols {
		for tau := 0; tau <= maxTau; tau++ {
			want, _ := baseline.BruteForce(col.ts, baseline.Options{Tau: tau})
			check := func(name string, got []sim.Pair) {
				t.Helper()
				if !pairsEqual(want, got) {
					t.Errorf("%s/%s τ=%d: %d pairs, oracle %d\n got: %v\nwant: %v",
						col.name, name, tau, len(got), len(want), got, want)
				}
			}
			prt, _ := core.SelfJoin(col.ts, core.Options{Tau: tau})
			check("PRT-safe", prt)
			off, _ := core.SelfJoin(col.ts, core.Options{Tau: tau, Position: core.PositionOff})
			check("PRT-off", off)
			rnd, _ := core.SelfJoin(col.ts, core.Options{Tau: tau, RandomPartition: true, Seed: 99})
			check("PRT-random", rnd)
			str, _ := baseline.STR(col.ts, baseline.Options{Tau: tau})
			check("STR", str)
			set, _ := baseline.SET(col.ts, baseline.Options{Tau: tau})
			check("SET", set)
			// The paper's position ranges: every reported pair must be a true
			// result (no false positives ever); completeness can fail only in
			// adversarial corner cases, which we surface as a log, not a
			// failure (see DESIGN.md reproduction notes).
			paper, _ := core.SelfJoin(col.ts, core.Options{Tau: tau, Position: core.PositionPaper})
			wantSet := pairSet(want)
			for _, p := range paper {
				if _, ok := wantSet[[2]int{p.I, p.J}]; !ok {
					t.Errorf("%s/PRT-paper τ=%d: spurious pair %v", col.name, tau, p)
				}
			}
			if len(paper) != len(want) {
				t.Logf("%s/PRT-paper τ=%d: %d of %d results (paper-formula position ranges miss %d pairs)",
					col.name, tau, len(paper), len(want), len(want)-len(paper))
			}
		}
	}
}

// TestJoinStatsSanity: candidates bound results, PartSJ candidates never
// exceed the size-filter pair count, and counters are coherent.
func TestJoinStatsSanity(t *testing.T) {
	cols := testCollections(true)
	for _, col := range cols {
		for tau := 1; tau <= 3; tau++ {
			_, bfStats := baseline.BruteForce(col.ts, baseline.Options{Tau: tau})
			pairs, st := core.SelfJoin(col.ts, core.Options{Tau: tau})
			if st.Results != int64(len(pairs)) {
				t.Fatalf("Results stat %d != %d", st.Results, len(pairs))
			}
			if st.Candidates < st.Results {
				t.Fatalf("candidates %d < results %d", st.Candidates, st.Results)
			}
			if st.Candidates > bfStats.Candidates {
				t.Fatalf("%s τ=%d: PartSJ candidates %d exceed size-filter pairs %d",
					col.name, tau, st.Candidates, bfStats.Candidates)
			}
			if st.MatchHits > st.MatchTests {
				t.Fatalf("hits %d > tests %d", st.MatchHits, st.MatchTests)
			}
		}
	}
}

// TestSelfJoinParallelVerification: worker pools do not change results.
func TestSelfJoinParallelVerification(t *testing.T) {
	cols := testCollections(true)
	for _, col := range cols {
		seq, _ := core.SelfJoin(col.ts, core.Options{Tau: 2})
		par, _ := core.SelfJoin(col.ts, core.Options{Tau: 2, Workers: 4})
		if !pairsEqual(seq, par) {
			t.Fatalf("%s: parallel verification changed results", col.name)
		}
	}
}

func TestSelfJoinEdgeCases(t *testing.T) {
	lt := tree.NewLabelTable()
	if pairs, st := core.SelfJoin(nil, core.Options{Tau: 2}); len(pairs) != 0 || st.Results != 0 {
		t.Fatal("empty collection should produce no pairs")
	}
	one := []*tree.Tree{tree.MustParseBracket("{a}", lt)}
	if pairs, _ := core.SelfJoin(one, core.Options{Tau: 3}); len(pairs) != 0 {
		t.Fatal("single tree should produce no pairs")
	}
	// τ = 0: exactly the duplicate pairs.
	dups := []*tree.Tree{
		tree.MustParseBracket("{a{b}}", lt),
		tree.MustParseBracket("{a{b}}", lt),
		tree.MustParseBracket("{a{c}}", lt),
		tree.MustParseBracket("{a{b}}", lt),
	}
	pairs, _ := core.SelfJoin(dups, core.Options{Tau: 0})
	want := []sim.Pair{{I: 0, J: 1}, {I: 0, J: 3}, {I: 1, J: 3}}
	if len(pairs) != len(want) {
		t.Fatalf("τ=0 pairs = %v", pairs)
	}
	for i := range want {
		if pairs[i].I != want[i].I || pairs[i].J != want[i].J || pairs[i].Dist != 0 {
			t.Fatalf("τ=0 pairs = %v", pairs)
		}
	}
	// All trees smaller than δ: everything flows through the small-tree path.
	tiny := []*tree.Tree{
		tree.MustParseBracket("{a}", lt),
		tree.MustParseBracket("{b}", lt),
		tree.MustParseBracket("{a{b}}", lt),
		tree.MustParseBracket("{a{c}}", lt),
	}
	got, st := core.SelfJoin(tiny, core.Options{Tau: 2})
	oracle, _ := baseline.BruteForce(tiny, baseline.Options{Tau: 2})
	if !pairsEqual(got, oracle) {
		t.Fatalf("tiny join = %v, oracle %v", got, oracle)
	}
	if st.SmallTreeFallback == 0 {
		t.Fatal("small-tree path not exercised")
	}
}

func TestSelfJoinPanicsOnNegativeTau(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on τ < 0")
		}
	}()
	core.SelfJoin(nil, core.Options{Tau: -1})
}

// TestIncrementalMatchesBatch: streaming insertion in random order yields the
// same pair set as the batch join.
func TestIncrementalMatchesBatch(t *testing.T) {
	cols := testCollections(true)
	rng := rand.New(rand.NewSource(31))
	for _, col := range cols {
		for tau := 0; tau <= 3; tau++ {
			want, _ := baseline.BruteForce(col.ts, baseline.Options{Tau: tau})
			// Shuffle arrival order.
			arrival := rng.Perm(len(col.ts))
			inc := core.NewIncremental(core.Options{Tau: tau})
			var got []sim.Pair
			for _, orig := range arrival {
				for _, p := range inc.Add(col.ts[orig]) {
					// Map stream indices back to original collection indices.
					oi, oj := arrival[p.I], arrival[p.J]
					if oi > oj {
						oi, oj = oj, oi
					}
					got = append(got, sim.Pair{I: oi, J: oj, Dist: p.Dist})
				}
			}
			sim.SortPairs(got)
			if !pairsEqual(want, got) {
				t.Fatalf("%s τ=%d: incremental %d pairs, oracle %d", col.name, tau, len(got), len(want))
			}
			if inc.Len() != len(col.ts) {
				t.Fatalf("Len = %d", inc.Len())
			}
		}
	}
}

// TestCrossJoin: Join(A, B) equals the cross pairs of the brute-force join
// over the union.
func TestCrossJoin(t *testing.T) {
	cols := testCollections(true)
	for _, col := range cols {
		if len(col.ts) < 6 {
			continue
		}
		mid := len(col.ts) / 2
		a, b := col.ts[:mid], col.ts[mid:]
		for tau := 0; tau <= 3; tau++ {
			got, _ := core.Join(a, b, core.Options{Tau: tau})
			all, _ := baseline.BruteForce(col.ts, baseline.Options{Tau: tau})
			var want []sim.Pair
			for _, p := range all {
				if p.I < mid && p.J >= mid {
					want = append(want, sim.Pair{I: p.I, J: p.J - mid, Dist: p.Dist})
				}
			}
			sim.SortPairs(want)
			if !pairsEqual(want, got) {
				t.Fatalf("%s τ=%d: cross join %v, want %v", col.name, tau, got, want)
			}
		}
	}
}

// TestCustomVerifierInjection: the injected verifier is used for every
// candidate and only candidates.
func TestCustomVerifierInjection(t *testing.T) {
	ts := synth.Generate(synth.Params{
		N: 30, AvgSize: 18, SizeJitter: 0.3, MaxFanout: 4, MaxDepth: 6,
		Labels: 8, DepthBias: 0, Cluster: 3, Decay: 0.05, Seed: 21})
	calls := 0
	v := func(t1, t2 *tree.Tree, tau int) (int, bool) {
		calls++
		return sim.DefaultVerifier(t1, t2, tau)
	}
	pairs, st := core.SelfJoin(ts, core.Options{Tau: 2, Verifier: v})
	if int64(calls) != st.Candidates {
		t.Fatalf("verifier calls %d != candidates %d", calls, st.Candidates)
	}
	oracle, _ := baseline.BruteForce(ts, baseline.Options{Tau: 2})
	if !pairsEqual(pairs, oracle) {
		t.Fatal("custom verifier changed results")
	}
}

// TestPositionModesCandidateOrdering: the position layer can only reduce
// candidates relative to no position filtering. (PositionSafe's
// size-difference-aware window and PositionPaper's rank-based ranges are
// incomparable with each other: either may admit a candidate the other
// prunes.)
func TestPositionModesCandidateOrdering(t *testing.T) {
	ts := synth.Synthetic(120, 5)
	for tau := 1; tau <= 3; tau++ {
		_, safe := core.SelfJoin(ts, core.Options{Tau: tau, Position: core.PositionSafe})
		_, off := core.SelfJoin(ts, core.Options{Tau: tau, Position: core.PositionOff})
		_, paper := core.SelfJoin(ts, core.Options{Tau: tau, Position: core.PositionPaper})
		if safe.Candidates > off.Candidates {
			t.Errorf("τ=%d: safe candidates %d > off %d", tau, safe.Candidates, off.Candidates)
		}
		if paper.Candidates > off.Candidates {
			t.Errorf("τ=%d: paper candidates %d > off %d", tau, paper.Candidates, off.Candidates)
		}
	}
}

// TestLargerSyntheticAgainstOracle runs the full invariant on the paper-shaped
// synthetic workload (slower; trimmed under -short).
func TestLargerSyntheticAgainstOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, seed := range []int64{1, 2} {
		ts := synth.Generate(synth.Params{
			N: 90, AvgSize: 40, SizeJitter: 0.3, MaxFanout: 3, MaxDepth: 5,
			Labels: 20, DepthBias: 0, Cluster: 4, Decay: 0.05, Seed: seed})
		for tau := 1; tau <= 4; tau++ {
			want, _ := baseline.BruteForce(ts, baseline.Options{Tau: tau})
			got, _ := core.SelfJoin(ts, core.Options{Tau: tau})
			if !pairsEqual(want, got) {
				t.Fatalf("seed %d τ=%d: %d pairs, oracle %d", seed, tau, len(got), len(want))
			}
		}
	}
}

func ExampleSelfJoin() {
	lt := tree.NewLabelTable()
	ts := []*tree.Tree{
		tree.MustParseBracket("{article{title{Go}}{year{2015}}}", lt),
		tree.MustParseBracket("{article{title{Go!}}{year{2015}}}", lt),
		tree.MustParseBracket("{book{title{SQL}}{year{1999}}}", lt),
	}
	pairs, _ := core.SelfJoin(ts, core.Options{Tau: 1})
	for _, p := range pairs {
		fmt.Printf("trees %d and %d are within distance %d\n", p.I, p.J, p.Dist)
	}
	// Output:
	// trees 0 and 1 are within distance 1
}
