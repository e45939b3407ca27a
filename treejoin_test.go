package treejoin_test

import (
	"fmt"
	"strings"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

func sampleTrees(lt *treejoin.LabelTable) []*treejoin.Tree {
	return []*treejoin.Tree{
		treejoin.MustParseBracket("{album{title{Blue}}{artist{JM}}{year{1971}}}", lt),
		treejoin.MustParseBracket("{album{title{Blue!}}{artist{JM}}{year{1971}}}", lt),
		treejoin.MustParseBracket("{album{title{Red}}{artist{TS}}{year{2012}}}", lt),
		treejoin.MustParseBracket("{book{title{Go}}{year{2015}}}", lt),
	}
}

func TestPublicSelfJoinMethodsAgree(t *testing.T) {
	ts := synth.Synthetic(80, 3)
	for tau := 0; tau <= 3; tau++ {
		ref, refStats := treejoin.SelfJoin(ts, tau, treejoin.WithMethod(treejoin.MethodBruteForce))
		if refStats.Results != int64(len(ref)) {
			t.Fatalf("stats mismatch")
		}
		for _, m := range []treejoin.Method{treejoin.MethodPartSJ, treejoin.MethodSTR, treejoin.MethodSET} {
			got, _ := treejoin.SelfJoin(ts, tau, treejoin.WithMethod(m))
			if len(got) != len(ref) {
				t.Fatalf("τ=%d %v: %d pairs, oracle %d", tau, m, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("τ=%d %v: pair %d = %v, want %v", tau, m, i, got[i], ref[i])
				}
			}
		}
	}
}

func TestPublicJoinOptions(t *testing.T) {
	ts := synth.Synthetic(60, 4)
	ref, _ := treejoin.SelfJoin(ts, 2)
	for _, opts := range [][]treejoin.Option{
		{treejoin.WithWorkers(4)},
		{treejoin.WithoutPositionFilter()},
		{treejoin.WithRandomPartitions(7)},
	} {
		got, _ := treejoin.SelfJoin(ts, 2, opts...)
		if len(got) != len(ref) {
			t.Fatalf("options %v changed results: %d vs %d", opts, len(got), len(ref))
		}
	}
	// Paper ranges: subset of the truth.
	paper, _ := treejoin.SelfJoin(ts, 2, treejoin.WithPaperPositionRanges())
	if len(paper) > len(ref) {
		t.Fatalf("paper ranges added results")
	}
}

func TestPublicDistance(t *testing.T) {
	lt := treejoin.NewLabelTable()
	a := treejoin.MustParseBracket("{a{b}{c}}", lt)
	b := treejoin.MustParseBracket("{a{b}{d}}", lt)
	if d := treejoin.Distance(a, b); d != 1 {
		t.Fatalf("Distance = %d", d)
	}
	if d, ok := treejoin.DistanceWithin(a, b, 0); ok {
		t.Fatalf("DistanceWithin(0) = %d, ok", d)
	}
	if d, ok := treejoin.DistanceWithin(a, b, 1); !ok || d != 1 {
		t.Fatalf("DistanceWithin(1) = %d, %v", d, ok)
	}
}

func TestPublicCrossJoin(t *testing.T) {
	lt := treejoin.NewLabelTable()
	ts := sampleTrees(lt)
	pairs, _ := treejoin.Join(ts[:2], ts[2:], 1)
	if len(pairs) != 0 {
		t.Fatalf("cross pairs = %v", pairs)
	}
	pairs, _ = treejoin.Join(ts[:2], ts[1:2], 1)
	// A[0]~B[0] (dist 1), A[1]~B[0] (dist 0)
	if len(pairs) != 2 {
		t.Fatalf("cross pairs = %v", pairs)
	}
}

func TestPublicIncremental(t *testing.T) {
	lt := treejoin.NewLabelTable()
	inc := treejoin.NewIncremental(1)
	ts := sampleTrees(lt)
	var total int
	for _, tr := range ts {
		total += len(inc.Add(tr))
	}
	if total != 1 {
		t.Fatalf("incremental found %d pairs, want 1", total)
	}
	if inc.Len() != len(ts) {
		t.Fatalf("Len = %d", inc.Len())
	}
	if inc.Tree(0) != ts[0] {
		t.Fatal("Tree accessor wrong")
	}
	if inc.Stats().Results != 1 {
		t.Fatalf("stats results = %d", inc.Stats().Results)
	}
}

func TestReadWriteBracketLines(t *testing.T) {
	input := "# a comment\n{a{b}}\n\n{c}\n  # another\n{d{e{f}}}\n"
	ts, err := treejoin.ReadBracketLines(strings.NewReader(input), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ts) != 3 {
		t.Fatalf("read %d trees", len(ts))
	}
	var sb strings.Builder
	if err := treejoin.WriteBracketLines(&sb, ts); err != nil {
		t.Fatal(err)
	}
	if sb.String() != "{a{b}}\n{c}\n{d{e{f}}}\n" {
		t.Fatalf("round trip = %q", sb.String())
	}
	if _, err := treejoin.ReadBracketLines(strings.NewReader("{a{b}}\nnot-a-tree\n"), nil); err == nil {
		t.Fatal("bad line not reported")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks line number: %v", err)
	}
}

func TestMethodString(t *testing.T) {
	if treejoin.MethodPartSJ.String() != "PRT" || treejoin.MethodSTR.String() != "STR" ||
		treejoin.MethodSET.String() != "SET" || treejoin.MethodBruteForce.String() != "BF" {
		t.Fatal("method names wrong")
	}
}

func ExampleSelfJoin() {
	lt := treejoin.NewLabelTable()
	docs := []*treejoin.Tree{
		treejoin.MustParseBracket("{html{head{title{x}}}{body{p{hi}}}}", lt),
		treejoin.MustParseBracket("{html{head{title{x}}}{body{p{hello}}}}", lt),
		treejoin.MustParseBracket("{html{body{table{tr{td}}}}}", lt),
	}
	pairs, _ := treejoin.SelfJoin(docs, 2)
	for _, p := range pairs {
		fmt.Printf("documents %d and %d differ by %d edit(s)\n", p.I, p.J, p.Dist)
	}
	// Output:
	// documents 0 and 1 differ by 1 edit(s)
}

func ExampleIncremental() {
	lt := treejoin.NewLabelTable()
	stream := treejoin.NewIncremental(1)
	for _, s := range []string{"{a{b}{c}}", "{a{b}{d}}", "{x{y}}"} {
		matches := stream.Add(treejoin.MustParseBracket(s, lt))
		fmt.Printf("%s: %d match(es)\n", s, len(matches))
	}
	// Output:
	// {a{b}{c}}: 0 match(es)
	// {a{b}{d}}: 1 match(es)
	// {x{y}}: 0 match(es)
}
