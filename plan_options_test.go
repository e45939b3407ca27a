// Option-conflict and Explain coverage for the adaptive planner's public
// surface: combinations a method cannot execute must fail loudly with
// ErrOptionConflict (fixed plans are ablation knobs, not silent no-ops), and
// Explain must describe the plan a join would run without running it.
package treejoin_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"treejoin"
	"treejoin/internal/synth"
)

func TestFixedPlanConflicts(t *testing.T) {
	ctx := context.Background()
	cp := mustCorpus(t, synth.Synthetic(20, 1))

	wantConflict := func(label string, opts ...treejoin.Option) {
		t.Helper()
		if _, _, err := cp.SelfJoin(ctx, 1, opts...); !errors.Is(err, treejoin.ErrOptionConflict) {
			t.Fatalf("%s: err = %v, want ErrOptionConflict", label, err)
		}
	}

	wantConflict("index source on PartSJ",
		treejoin.WithFixedPlan(treejoin.PlanSpec{Source: treejoin.PlanSourceTokenIndex}))
	wantConflict("loop source on PartSJ",
		treejoin.WithFixedPlan(treejoin.PlanSpec{Source: treejoin.PlanSourceSortedLoop}))
	wantConflict("prefix multiplier on PartSJ",
		treejoin.WithFixedPlan(treejoin.PlanSpec{PrefixC: 8}))
	wantConflict("index source on brute force",
		treejoin.WithMethod(treejoin.MethodBruteForce),
		treejoin.WithFixedPlan(treejoin.PlanSpec{Source: treejoin.PlanSourceTokenIndex}))
	wantConflict("prefix multiplier without the index",
		treejoin.WithMethod(treejoin.MethodPQGram),
		treejoin.WithFixedPlan(treejoin.PlanSpec{Source: treejoin.PlanSourceSortedLoop, PrefixC: 8}))
	wantConflict("unknown source value",
		treejoin.WithMethod(treejoin.MethodPQGram),
		treejoin.WithFixedPlan(treejoin.PlanSpec{Source: treejoin.PlanSource(99)}))
	wantConflict("negative prefix multiplier",
		treejoin.WithMethod(treejoin.MethodPQGram),
		treejoin.WithFixedPlan(treejoin.PlanSpec{PrefixC: -1}))

	if _, _, err := cp.SelfJoin(ctx, 1, treejoin.WithMethod(treejoin.MethodPQGram),
		treejoin.WithFixedPlan(treejoin.PlanSpec{Chain: []treejoin.Prefilter{treejoin.Prefilter(42)}})); !errors.Is(err, treejoin.ErrUnknownPrefilter) {
		t.Fatalf("unknown chain prefilter: err = %v, want ErrUnknownPrefilter", err)
	}

	// PartSJ-only operations never take a plan spec.
	q := cp.Tree(0)
	if _, err := cp.Search(ctx, q, 1, treejoin.WithFixedPlan(treejoin.PlanSpec{})); !errors.Is(err, treejoin.ErrOptionConflict) {
		t.Fatal("Search must reject fixed plan specs")
	}
	if _, err := cp.TopK(ctx, 3, treejoin.WithFixedPlan(treejoin.PlanSpec{})); !errors.Is(err, treejoin.ErrOptionConflict) {
		t.Fatal("TopK must reject fixed plan specs")
	}
	if _, err := cp.Incremental(1, treejoin.WithFixedPlan(treejoin.PlanSpec{})); !errors.Is(err, treejoin.ErrOptionConflict) {
		t.Fatal("Incremental must reject fixed plan specs")
	}

	// WithAutoPlan undoes an earlier WithFixedPlan — no conflict survives.
	if _, _, err := cp.SelfJoin(ctx, 1, treejoin.WithMethod(treejoin.MethodPQGram),
		treejoin.WithFixedPlan(treejoin.PlanSpec{PrefixC: -1}), treejoin.WithAutoPlan()); err != nil {
		t.Fatalf("WithAutoPlan after WithFixedPlan: %v", err)
	}
}

func TestExplain(t *testing.T) {
	ctx := context.Background()
	cp := mustCorpus(t, synth.Synthetic(60, 4))

	// A fixed plan explains without estimates.
	ex, err := cp.Explain(ctx, 2, treejoin.WithMethod(treejoin.MethodPQGram), treejoin.WithFixedPlan())
	if err != nil {
		t.Fatal(err)
	}
	if ex.Source != "token-index" || ex.Origin != "fixed" || ex.PrefixC != 12 {
		t.Fatalf("fixed explanation = %+v", ex)
	}
	if len(ex.Chain) != 1 || ex.Chain[0] != "PQG" {
		t.Fatalf("fixed chain = %v", ex.Chain)
	}
	if ex.WindowPairs <= 0 {
		t.Fatalf("window pairs = %d, want > 0", ex.WindowPairs)
	}
	if ex.Survival != nil {
		t.Fatalf("fixed plan carries estimates: %+v", ex.Survival)
	}
	if s := ex.String(); !strings.Contains(s, "source=token-index") || !strings.Contains(s, "origin=fixed") {
		t.Fatalf("String() = %q", s)
	}

	// Under auto the small corpus stays on the fixed plan (the planner's
	// work-scale gate) but must still explain coherently.
	ex, err = cp.Explain(ctx, 2, treejoin.WithMethod(treejoin.MethodPQGram))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Origin != "fixed" || ex.Source != "token-index" {
		t.Fatalf("auto explanation on a small corpus = %+v", ex)
	}

	// Explain surfaces plan conflicts the same way a join would.
	if _, err := cp.Explain(ctx, 1,
		treejoin.WithFixedPlan(treejoin.PlanSpec{Source: treejoin.PlanSourceTokenIndex})); !errors.Is(err, treejoin.ErrOptionConflict) {
		t.Fatalf("Explain conflict: err = %v, want ErrOptionConflict", err)
	}
}
