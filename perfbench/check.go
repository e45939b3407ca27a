package main

import (
	"fmt"
	"sort"

	"treejoin"
)

// pairKey is an unordered tree pair, lower key first.
type pairKey [2]int

func keyOf(a, b int) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// pairSet maps each pair within the threshold to its distance.
type pairSet map[pairKey]int

func pairSetOf(ps []treejoin.Pair) pairSet {
	s := make(pairSet, len(ps))
	for _, p := range ps {
		s[keyOf(p.I, p.J)] = p.Dist
	}
	return s
}

// sortPairs puts pairs in canonical (I, J) order.
func sortPairs(ps []treejoin.Pair) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].I != ps[b].I {
			return ps[a].I < ps[b].I
		}
		return ps[a].J < ps[b].J
	})
}

// checkPairs reports the first difference between two pair lists, compared
// in canonical (I, J) order; want must be in that order.
func checkPairs(got, want []treejoin.Pair) error {
	g := append([]treejoin.Pair(nil), got...)
	sortPairs(g)
	if len(g) != len(want) {
		return fmt.Errorf("pair count %d, want %d", len(g), len(want))
	}
	for i := range g {
		if g[i] != want[i] {
			return fmt.Errorf("pair %d is %v, want %v", i, g[i], want[i])
		}
	}
	return nil
}

// checkPairsBetween checks a pair list taken over a membership that is only
// known to lie between two sets: every reference pair whose trees are both
// surely live must be present, and every reported pair must be a reference
// pair, at its reference distance, over possibly live trees. When the two
// sets agree this is equality with the reference restricted to them.
func checkPairsBetween(got []treejoin.Pair, ref pairSet, sure, maybe func(key int) bool) error {
	seen := make(map[pairKey]bool, len(got))
	for _, p := range got {
		k := keyOf(p.I, p.J)
		if seen[k] {
			return fmt.Errorf("pair %v reported twice", k)
		}
		seen[k] = true
		d, ok := ref[k]
		if !ok || d != p.Dist {
			return fmt.Errorf("pair %v at distance %d is not a reference pair", k, p.Dist)
		}
		if !maybe(k[0]) || !maybe(k[1]) {
			return fmt.Errorf("pair %v involves a tree that was not live", k)
		}
	}
	for k := range ref {
		if sure(k[0]) && sure(k[1]) && !seen[k] {
			return fmt.Errorf("reference pair %v (distance %d) missing", k, ref[k])
		}
	}
	return nil
}

// checkMatches re-verifies every match with the exact bounded distance and
// requires the query itself (a corpus member at position self) at distance
// 0. tree resolves a match position; it returns nil for an unknown one.
func checkMatches(q *treejoin.Tree, self int, ms []treejoin.Match, tree func(pos int) *treejoin.Tree) error {
	found := false
	for _, m := range ms {
		t := tree(m.Pos)
		if t == nil {
			return fmt.Errorf("match at unknown position %d", m.Pos)
		}
		if d, ok := treejoin.DistanceWithin(q, t, m.Dist); !ok || d != m.Dist {
			return fmt.Errorf("match %d reported at distance %d, re-verified %d (within: %v)", m.Pos, m.Dist, d, ok)
		}
		if m.Pos == self && m.Dist == 0 {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("query member %d not reported at distance 0", self)
	}
	return nil
}

// checkSearchSet checks a threshold search for corpus member self against
// the reference join: the reported positions must cover every surely live
// reference partner and include nothing beyond self, its possibly live
// reference partners, and exact duplicates at distance 0 found there.
func checkSearchSet(ms []treejoin.Match, self int, ref pairSet, partners []int, sure, maybe func(key int) bool) error {
	got := make(map[int]int, len(ms))
	for _, m := range ms {
		got[m.Pos] = m.Dist
	}
	for _, p := range partners {
		if sure(p) {
			if d, ok := got[p]; !ok || d != ref[keyOf(self, p)] {
				return fmt.Errorf("reference partner %d of %d missing or at wrong distance", p, self)
			}
		}
	}
	for pos, d := range got {
		if pos == self {
			continue
		}
		rd, ok := ref[keyOf(self, pos)]
		if !ok || rd != d || !maybe(pos) {
			return fmt.Errorf("match %d at distance %d is not a live reference partner of %d", pos, d, self)
		}
	}
	return nil
}

// checkKNN requires an exact (Dist, Pos) match with a reference list.
func checkKNN(got, want []treejoin.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d neighbours, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("neighbour %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// bruteKNN ranks every corpus tree by exact distance to q and returns the
// first k by (Dist, Pos): the reference KNN answer.
func bruteKNN(dists []int, k int) []treejoin.Match {
	ms := make([]treejoin.Match, len(dists))
	for i, d := range dists {
		ms[i] = treejoin.Match{Pos: i, Dist: d}
	}
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].Dist != ms[b].Dist {
			return ms[a].Dist < ms[b].Dist
		}
		return ms[a].Pos < ms[b].Pos
	})
	return ms[:min(k, len(ms))]
}

// topKOf returns the k closest reference pairs by (Dist, I, J): the TopK
// answer whenever the reference threshold holds at least k pairs.
func topKOf(ref []treejoin.Pair, k int) []treejoin.Pair {
	s := append([]treejoin.Pair(nil), ref...)
	sort.Slice(s, func(a, b int) bool {
		if s[a].Dist != s[b].Dist {
			return s[a].Dist < s[b].Dist
		}
		if s[a].I != s[b].I {
			return s[a].I < s[b].I
		}
		return s[a].J < s[b].J
	})
	return s[:min(k, len(s))]
}
