package main

import (
	"strings"
	"testing"

	"treejoin"
)

func testTrees(t *testing.T) []*treejoin.Tree {
	t.Helper()
	ts, err := parseAll([]string{"{a{b}{c}}", "{a{b}{d}}", "{a{b}{c}}", "{x{y{z{w}}}}"}, treejoin.NewLabelTable())
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestCheckPairsRejectsCorruption(t *testing.T) {
	want := []treejoin.Pair{{I: 0, J: 1, Dist: 1}, {I: 0, J: 2, Dist: 0}, {I: 1, J: 2, Dist: 1}}
	if err := checkPairs([]treejoin.Pair{want[2], want[0], want[1]}, want); err != nil {
		t.Fatalf("reordered but equal list rejected: %v", err)
	}
	for name, got := range map[string][]treejoin.Pair{
		"wrong distance": {{I: 0, J: 1, Dist: 2}, want[1], want[2]},
		"missing pair":   {want[0], want[1]},
		"extra pair":     {want[0], want[1], want[2], {I: 2, J: 3, Dist: 2}},
		"wrong partner":  {want[0], {I: 0, J: 3, Dist: 0}, want[2]},
	} {
		if err := checkPairs(got, want); err == nil {
			t.Errorf("%s: corrupted pair list accepted", name)
		}
	}
}

func TestCheckPairsBetween(t *testing.T) {
	ref := pairSet{{0, 1}: 1, {0, 2}: 0, {1, 5}: 2}
	all := func(int) bool { return true }
	below5 := func(k int) bool { return k < 5 }
	base := []treejoin.Pair{{I: 0, J: 1, Dist: 1}, {I: 0, J: 2, Dist: 0}}
	// Tree 5 may or may not be live: both answers pass.
	if err := checkPairsBetween(base, ref, below5, all); err != nil {
		t.Errorf("answer without the in-flight tree rejected: %v", err)
	}
	if err := checkPairsBetween(append(base, treejoin.Pair{I: 5, J: 1, Dist: 2}), ref, below5, all); err != nil {
		t.Errorf("answer with the in-flight tree rejected: %v", err)
	}
	for name, got := range map[string][]treejoin.Pair{
		"surely live pair missing": base[:1],
		"wrong distance":           {{I: 0, J: 1, Dist: 2}, base[1]},
		"not a reference pair":     append(base, treejoin.Pair{I: 1, J: 2, Dist: 1}),
		"duplicate":                append(base, base[0]),
	} {
		if err := checkPairsBetween(got, ref, below5, all); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Tree 5 surely not live: its pair must not appear.
	if err := checkPairsBetween(append(base, treejoin.Pair{I: 1, J: 5, Dist: 2}), ref, below5, below5); err == nil {
		t.Errorf("pair of a removed tree accepted")
	}
}

func TestCheckMatchesRejectsWrongDistance(t *testing.T) {
	ts := testTrees(t)
	tree := func(p int) *treejoin.Tree {
		if p < 0 || p >= len(ts) {
			return nil
		}
		return ts[p]
	}
	good := []treejoin.Match{{Pos: 0, Dist: 0}, {Pos: 2, Dist: 0}, {Pos: 1, Dist: 1}}
	if err := checkMatches(ts[0], 0, good, tree); err != nil {
		t.Fatalf("correct KNN answer rejected: %v", err)
	}
	for name, ms := range map[string][]treejoin.Match{
		"distance too small": {{Pos: 0, Dist: 0}, {Pos: 1, Dist: 0}},
		"distance too large": {{Pos: 0, Dist: 0}, {Pos: 1, Dist: 2}},
		"query missing":      {{Pos: 2, Dist: 0}, {Pos: 1, Dist: 1}},
		"unknown position":   {{Pos: 0, Dist: 0}, {Pos: 9, Dist: 1}},
	} {
		if err := checkMatches(ts[0], 0, ms, tree); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckKNNAgainstBruteForce(t *testing.T) {
	ts := testTrees(t)
	want := bruteKNN(allDistances(ts, ts[0]), 3)
	if want[0] != (treejoin.Match{Pos: 0, Dist: 0}) || want[1] != (treejoin.Match{Pos: 2, Dist: 0}) || want[2].Pos != 1 {
		t.Fatalf("bruteKNN = %+v", want)
	}
	got := append([]treejoin.Match(nil), want...)
	if err := checkKNN(got, want); err != nil {
		t.Fatalf("equal answers rejected: %v", err)
	}
	got[2].Dist++
	if err := checkKNN(got, want); err == nil || !strings.Contains(err.Error(), "neighbour 2") {
		t.Errorf("wrong KNN distance accepted or misreported: %v", err)
	}
	if err := checkKNN(got[:2], want); err == nil {
		t.Errorf("short KNN answer accepted")
	}
}

func TestCheckSearchSet(t *testing.T) {
	ref := pairSet{{0, 1}: 1, {0, 2}: 0}
	all := func(int) bool { return true }
	ok := []treejoin.Match{{Pos: 0, Dist: 0}, {Pos: 1, Dist: 1}, {Pos: 2, Dist: 0}}
	if err := checkSearchSet(ok, 0, ref, []int{1, 2}, all, all); err != nil {
		t.Fatalf("complete answer rejected: %v", err)
	}
	if err := checkSearchSet(ok[:2], 0, ref, []int{1, 2}, all, all); err == nil {
		t.Errorf("answer missing a partner accepted")
	}
	if err := checkSearchSet(append(ok, treejoin.Match{Pos: 3, Dist: 2}), 0, ref, []int{1, 2}, all, all); err == nil {
		t.Errorf("answer with a non-partner accepted")
	}
}
