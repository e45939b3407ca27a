package core

import (
	"fmt"
	"math"

	"treejoin/internal/engine"
	"treejoin/internal/sim"
	"treejoin/internal/tree"
)

// Options configures a PartSJ join.
type Options struct {
	// Tau is the TED threshold τ ≥ 0. Each tree is split into δ = 2τ+1
	// subgraphs.
	Tau int
	// Position selects the postorder-pruning variant (default PositionSafe).
	Position PositionFilter
	// RandomPartition replaces the balanced MaxMinSize partitioning with
	// δ−1 random bridging edges; used by the partitioning-scheme ablation.
	RandomPartition bool
	// Seed seeds the random partitioner (ignored unless RandomPartition).
	Seed int64
	// Verifier decides candidate pairs; nil means the τ-banded bounded TED
	// over arena views (ted.DistanceBoundedView).
	Verifier sim.Verifier
	// Workers parallelises TED verification, the partitioning pre-pass, and
	// (through ShardedSelfJoin's fragment-and-replicate decomposition) the
	// candidate generation tasks. 1 runs sequentially; values below 1
	// ("unset") are normalized to runtime.GOMAXPROCS(0).
	Workers int
}

// delta is the partition count δ = 2τ+1, saturating instead of wrapping: a
// δ beyond every tree size partitions none, however large τ is.
func (o Options) delta() int {
	if o.Tau > (math.MaxInt-1)/2 {
		return math.MaxInt
	}
	return 2*o.Tau + 1
}

func (o Options) validate() error {
	if o.Tau < 0 {
		return fmt.Errorf("core: negative threshold %d", o.Tau)
	}
	return nil
}

// Job assembles the engine job for a PartSJ execution: the inverted subgraph
// index as the candidate source and prefilters (if any) ahead of it.
func (o Options) Job(shards int, filters []engine.PairFilter) engine.Job {
	job := engine.Job{
		Source:   NewSource(o),
		Filters:  filters,
		Tau:      o.Tau,
		Verifier: o.Verifier,
		Workers:  o.Workers,
		Shards:   shards,
	}
	// PartSJ's candidate source is its own subgraph index — never a planner
	// choice — so every PartSJ run carries this fixed plan record.
	job.Plan = sim.PlanRecord{Source: "partsj", Chain: make([]string, len(filters)), Origin: "fixed"}
	for i, f := range filters {
		job.Plan.Chain[i] = f.Name()
	}
	return job
}

// SelfJoin implements Algorithm 1 (PartSJ): it reports every pair of trees in
// ts with TED ≤ opts.Tau, in canonical (I, J) order, together with execution
// statistics. Trees must share a label table. The index over subgraphs is
// built during the join; no preprocessing is required.
//
// Trees smaller than δ = 2τ+1 nodes cannot be δ-partitioned (a δ-partitioning
// needs 2τ distinct edges); the paper does not discuss them. They are kept in
// a side list and paired by direct verification, which is cheap precisely
// because such trees are tiny.
func SelfJoin(ts []*tree.Tree, opts Options) ([]sim.Pair, *sim.Stats) {
	if err := opts.validate(); err != nil {
		panic(err)
	}
	return opts.Job(0, nil).SelfJoin(ts)
}

// Join reports every cross pair (a ∈ A, b ∈ B) with TED ≤ opts.Tau. Pair.I
// indexes into A and Pair.J into B. Both collections must share one label
// table. The engine processes the union of the collections in ascending
// size order, maintaining one subgraph index per side and probing the
// opposite side's index, so the Lemma 2 filter applies to every cross pair
// exactly as in the self join.
func Join(a, b []*tree.Tree, opts Options) ([]sim.Pair, *sim.Stats) {
	if err := opts.validate(); err != nil {
		panic(err)
	}
	return opts.Job(0, nil).Join(a, b)
}
