package treejoin_test

import (
	"strings"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

func TestNegativeTauPanics(t *testing.T) {
	cases := []func(){
		func() { treejoin.SelfJoin(nil, -1) },
		func() { treejoin.Join(nil, nil, -2) },
		func() { treejoin.NewIncremental(-1) },
		func() { treejoin.NewIndex(nil, -3) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic on negative tau", i)
				}
			}()
			f()
		}()
	}
}

func TestJoinSupportsEveryMethod(t *testing.T) {
	// Historically Join panicked for every method but PartSJ; the engine
	// refactor made cross joins universal. See cross_join_test.go for the
	// oracle agreement property test.
	lt := treejoin.NewLabelTable()
	a := []*treejoin.Tree{treejoin.MustParseBracket("{a{b}{c}}", lt)}
	b := []*treejoin.Tree{
		treejoin.MustParseBracket("{a{b}{d}}", lt),
		treejoin.MustParseBracket("{x{y{z{w}}}}", lt),
	}
	for _, m := range []treejoin.Method{
		treejoin.MethodPartSJ, treejoin.MethodSTR, treejoin.MethodSET,
		treejoin.MethodBruteForce, treejoin.MethodHistogram,
		treejoin.MethodEulerString, treejoin.MethodPQGram,
	} {
		pairs, _ := treejoin.Join(a, b, 1, treejoin.WithMethod(m))
		if len(pairs) != 1 || pairs[0].I != 0 || pairs[0].J != 0 || pairs[0].Dist != 1 {
			t.Fatalf("%v: Join = %+v, want one (0,0,1) pair", m, pairs)
		}
	}
}

func TestUnknownMethodString(t *testing.T) {
	if s := treejoin.Method(99).String(); !strings.Contains(s, "99") {
		t.Fatalf("Method(99) = %q", s)
	}
}

func TestMeasureExported(t *testing.T) {
	ts := synth.Synthetic(30, 3)
	s := treejoin.Measure(ts)
	if s.Trees != 30 || s.AvgSize <= 0 {
		t.Fatalf("Measure = %+v", s)
	}
}

func TestWriteBracketLinesError(t *testing.T) {
	lt := treejoin.NewLabelTable()
	ts := []*treejoin.Tree{treejoin.MustParseBracket("{a{b}}", lt)}
	if err := treejoin.WriteBracketLines(failingWriter{}, ts); err == nil {
		t.Fatal("write error not propagated")
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, errWrite
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }
