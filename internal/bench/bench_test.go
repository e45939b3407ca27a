package bench_test

import (
	"bytes"
	"strings"
	"testing"

	"treejoin/internal/bench"
	"treejoin/internal/synth"
)

func tinyConfig() bench.Config {
	return bench.Config{Scale: 0.002, Seed: 1} // 200/100/20/20 trees
}

func TestRunMethodsAgreeOnResults(t *testing.T) {
	ts := synth.Synthetic(60, 2)
	for tau := 1; tau <= 3; tau++ {
		var results []int64
		for _, m := range []bench.Method{bench.STR, bench.SET, bench.PRT, bench.PRTRandom, bench.PRTNoPos, bench.BF} {
			r := bench.Run(m, "t", ts, tau, 0)
			results = append(results, r.Results)
			if r.Candidates < r.Results {
				t.Fatalf("%s τ=%d: candidates %d < results %d", m, tau, r.Candidates, r.Results)
			}
			if r.Trees != len(ts) {
				t.Fatalf("tree count wrong")
			}
		}
		for _, n := range results[1:] {
			if n != results[0] {
				t.Fatalf("τ=%d: result counts diverge: %v", tau, results)
			}
		}
	}
}

func TestFigure10And11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rt, ct := bench.Figure10And11(tinyConfig())
	if len(rt) != 4 || len(ct) != 4 {
		t.Fatalf("tables: %d runtime, %d candidates", len(rt), len(ct))
	}
	for _, tab := range rt {
		if len(tab.Rows) != 5*3 { // τ 1..5 × 3 methods
			t.Fatalf("%s: %d rows", tab.Title, len(tab.Rows))
		}
	}
	for _, tab := range ct {
		if len(tab.Rows) != 5 {
			t.Fatalf("%s: %d rows", tab.Title, len(tab.Rows))
		}
	}
}

func TestFigure12And13Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rt, ct := bench.Figure12And13(tinyConfig())
	if len(rt) != 4 || len(ct) != 4 {
		t.Fatalf("tables: %d runtime, %d candidates", len(rt), len(ct))
	}
	for _, tab := range rt {
		if len(tab.Rows) != 5*3 { // 5 cardinality steps × 3 methods
			t.Fatalf("%s: %d rows", tab.Title, len(tab.Rows))
		}
	}
}

func TestFigure14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rt, ct := bench.Figure14(bench.Config{Scale: 0.001, Seed: 1})
	if len(rt) != 4 || len(ct) != 4 { // one table pair per swept parameter
		t.Fatalf("tables: %d runtime, %d candidates", len(rt), len(ct))
	}
	for _, tab := range rt {
		if len(tab.Rows) != 5*3 { // 5 parameter values × 3 methods
			t.Fatalf("%s: %d rows", tab.Title, len(tab.Rows))
		}
	}
}

func TestAblationTables(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tab := bench.AblationPartitioning(tinyConfig())
	if len(tab.Rows) != 10 {
		t.Fatalf("partitioning ablation rows = %d", len(tab.Rows))
	}
	tab = bench.AblationPosition(tinyConfig())
	if len(tab.Rows) != 15 {
		t.Fatalf("position ablation rows = %d", len(tab.Rows))
	}
}

func TestTableRender(t *testing.T) {
	tab := &bench.Table{Title: "demo", Columns: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "333") {
		t.Fatalf("render = %q", out)
	}
	var md bytes.Buffer
	tab.RenderMarkdown(&md)
	if !strings.Contains(md.String(), "| a | bb |") {
		t.Fatalf("markdown = %q", md.String())
	}
}

func TestDatasetsScale(t *testing.T) {
	ds := bench.Datasets(bench.Config{Scale: 0.001, Seed: 1})
	if len(ds) != 4 {
		t.Fatalf("%d datasets", len(ds))
	}
	if len(ds[0].Trees) != 100 { // 100K × 0.001
		t.Fatalf("swissprot scaled to %d", len(ds[0].Trees))
	}
	if len(ds[2].Trees) != 20 { // 10K × 0.001 → clamped to 20
		t.Fatalf("sentiment scaled to %d", len(ds[2].Trees))
	}
}
