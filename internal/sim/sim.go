// Package sim holds the plumbing shared by every similarity-join method in
// this module: result pairs, per-phase statistics, size-ordered processing,
// and a parallel TED verification stage.
package sim

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"time"

	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Pair is one similarity-join result: trees I and J (indices into the joined
// collection, I < J) with TED Dist ≤ τ.
type Pair struct {
	I, J int
	Dist int
}

// SortPairs orders pairs by (I, J); all join methods return this canonical
// order so results can be compared directly.
func SortPairs(ps []Pair) {
	sort.Slice(ps, func(a, b int) bool {
		if ps[a].I != ps[b].I {
			return ps[a].I < ps[b].I
		}
		return ps[a].J < ps[b].J
	})
}

// StageStats attributes filtering work to one pipeline stage: how many pairs
// the stage was offered and how many it killed. The engine records one entry
// per *executed* filter, in the order the stages actually ran — when a
// planner reorders or drops stages, the entries follow the executed chain,
// not the configured one — so a filter chain's ablation (which stage does
// the pruning) reads directly off a join's Stats.
type StageStats struct {
	Name   string // filter name, e.g. "HIST"
	In     int64  // pairs offered to the stage
	Pruned int64  // pairs the stage eliminated

	// SampledNs and Sampled record the stage's per-pair cost by sampling:
	// every sampled screening call times this stage's predicate and adds the
	// elapsed nanoseconds here. The ratio SampledNs/Sampled estimates the
	// predicate's cost; the cost model's chain ordering runs on it.
	SampledNs int64
	Sampled   int64
}

// Out returns the number of pairs that survived the stage.
func (s StageStats) Out() int64 { return s.In - s.Pruned }

// CostNs returns the sampled per-pair predicate cost in nanoseconds, or 0
// when no screening call was sampled.
func (s StageStats) CostNs() float64 {
	if s.Sampled == 0 {
		return 0
	}
	return float64(s.SampledNs) / float64(s.Sampled)
}

// PlanRecord describes the execution plan a run was given: which candidate
// source was configured, the filter chain in executed order, the prefix
// multiplier the token index ran with (0 when no index was involved), and
// where the plan came from — "fixed" (the static default or an explicit
// WithFixedPlan), "calibrated" (chosen by the cost model from a sampled
// calibration probe), or "observed" (chosen from completed-run feedback).
type PlanRecord struct {
	Source  string
	Chain   []string
	PrefixC int
	Origin  string
}

// Stats records where a join spent its effort; the split between candidate
// generation and TED verification is the quantity the paper's Figures 10/12
// plot.
type Stats struct {
	Trees      int           // collection size
	Candidates int64         // pairs that reached the TED verifier
	Results    int64         // pairs with TED ≤ τ
	CandTime   time.Duration // candidate generation (filtering) time, summed across tasks (CPU effort)
	VerifyTime time.Duration // exact TED computation time

	// CandWall is the wall-clock time of the candidate-generation stage:
	// filter preparation plus the elapsed time of the source's task pool,
	// with inline verification carved out. CandTime sums each task's own
	// clock, so on a multi-core run it measures CPU effort and can exceed
	// the wall clock; CandWall is what the user waited.
	CandWall time.Duration

	// Source names the candidate source that actually ran ("sorted-loop",
	// "token-index", "partsj"). When a source falls back — the token index
	// reverts to the sorted loop on tiny corpora or oversized thresholds —
	// the effective source is reported, not the configured one.
	Source string

	// Stages holds per-filter attribution when the join ran a filter
	// pipeline: one entry per stage, in the order the stages ran.
	Stages []StageStats

	// Plan records the execution plan behind the run (source, executed
	// filter order, prefix multiplier, and the plan's origin); see
	// PlanRecord. Always stamped by the treejoin layer, whether the plan was
	// fixed or chosen by the adaptive planner.
	Plan PlanRecord

	// PartSJ-specific counters (zero for the baselines).
	PartitionTime     time.Duration // δ-partitioning of all trees
	IndexedSubgraphs  int64         // subgraphs inserted into the two-layer index
	SubgraphProbes    int64         // index bucket entries inspected
	MatchTests        int64         // full subgraph-match verifications run
	MatchHits         int64         // match tests that succeeded
	SmallTreeFallback int64         // candidate pairs produced by the small-tree path

	// Token-index source counters (zero unless the join's candidates came
	// from engine.TokenIndexSource). IndexBuildTime is a breakdown of
	// CandTime (tokenisation, frequency ranking, prefix construction), not
	// an addition to Total.
	IndexBuildTime  time.Duration // building the frequency-ordered prefix index
	PostingsScanned int64         // posting-list entries inspected while probing
	SkippedByCount  int64         // partners discarded because their shared-token count proved the bound unreachable

	// PostingsTombstoned counts posting-list entries skipped because they
	// referenced removed trees — the probe-side cost of a dynamic corpus's
	// tombstone scheme, paid until compaction rewrites the lists (zero for
	// static corpora and per-run indexes, which never tombstone).
	PostingsTombstoned int64

	// PairsRetracted counts result pairs withdrawn from a standing
	// incremental result set because one of their trees was removed (see
	// Incremental.Retracted); zero for one-shot joins.
	PairsRetracted int64

	// τ-banded verifier counters, recorded by the default threshold-aware
	// TED verifier (zero when a custom Verifier decided the candidates; see
	// internal/ted and DESIGN.md, "Verification: one τ-banded kernel").
	DPAvoided       int64 // candidates settled by the size/label lower bounds alone — full DPs avoided
	KeyrootsSkipped int64 // keyroot-pair forest DPs pruned by the positional skip
	BandAborts      int64 // forest DPs cut short when a banded row's frontier exceeded τ

	// Decomposition-strategy counters, recorded by the arena verifier: how
	// many candidate pairs ran the DP under each RTED-style per-pair choice
	// (left-path arrays vs. the mirrored right-path arrays). Pairs settled by
	// the lower bounds alone count under neither.
	StrategyLeft  int64
	StrategyRight int64
}

// Total returns the end-to-end join time.
func (s *Stats) Total() time.Duration {
	return s.CandTime + s.VerifyTime + s.PartitionTime
}

// NormalizeWorkers resolves a caller-supplied worker count: values below 1
// ("unset") become runtime.GOMAXPROCS(0) — use every core the runtime will
// schedule on — and explicit counts pass through. Every component that deals
// tasks to a pool (the engine's collection, the incremental stream's
// verification) normalizes through this one function.
func NormalizeWorkers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Verifier decides whether a candidate pair is a result: it reports the
// distance and whether it is ≤ tau. The default is ted.DistanceBounded;
// tests inject instrumented verifiers.
type Verifier func(t1, t2 *tree.Tree, tau int) (int, bool)

// DefaultVerifier is the τ-banded bounded TED (RTED-style strategy choice,
// threshold-aware DP). Engine-driven joins verify over arena views cached
// per tree; this uncached form is the fallback for direct VerifyStream
// callers.
func DefaultVerifier(t1, t2 *tree.Tree, tau int) (int, bool) {
	return ted.DistanceBounded(t1, t2, tau)
}

// SizeOrder returns tree indices sorted by ascending size, ties by index, as
// required by Algorithm 1 (line 3).
func SizeOrder(ts []*tree.Tree) []int {
	order := make([]int, len(ts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return ts[order[a]].Size() < ts[order[b]].Size()
	})
	return order
}

// Candidate is a pair awaiting verification.
type Candidate struct{ I, J int }

// EmitFunc consumes one verified pair. Returning false asks the producer to
// stop early; producers may still deliver pairs already in flight.
type EmitFunc func(Pair) bool

// VerifyAll runs the verifier over cands, optionally in parallel, and returns
// the confirmed pairs (unsorted). workers ≤ 1 verifies inline. The elapsed
// wall-clock time is added to stats.VerifyTime and len(cands) to
// stats.Candidates.
func VerifyAll(ts []*tree.Tree, cands []Candidate, tau int, verify Verifier, workers int, stats *Stats) []Pair {
	var out []Pair
	VerifyStream(context.Background(), ts, cands, tau, verify, workers, stats, func(p Pair) bool {
		out = append(out, p)
		return true
	})
	return out
}

// verifyCtxStride bounds how many candidates a verification loop decides
// between context checks: small enough that cancellation aborts within a few
// TED computations, large enough that the check never shows up in a profile.
const verifyCtxStride = 16

// verifyBatchChunk is how many candidates a parallel verify worker claims per
// lock acquisition. Candidate decisions are microseconds, not nanoseconds, so
// the chunk is about amortising the take/deliver mutex and keeping each
// worker on one run of the candidate slice (the pairs of a run share trees
// far more often than random pairs do — the arena verifier's view lookups and
// scratch stay hot); it is small enough that the tail imbalance stays under a
// chunk's worth of work per worker.
const verifyBatchChunk = 32

// BatchVerifier is a per-worker verification context: it decides candidate
// pairs by collection index and may hold worker-private state — DP scratch, a
// view table — that VerifyPair reuses across the whole batch. Close releases
// that state (returns scratch to its pool); the verifier must not be used
// after Close. A BatchVerifier is confined to one goroutine, so VerifyPair
// needs no locking.
type BatchVerifier interface {
	VerifyPair(i, j, tau int) (dist int, ok bool)
	Close()
}

// BatchVerifierFactory mints one BatchVerifier per verify worker. The factory
// itself may be called from multiple goroutines; the verifiers it returns are
// not shared.
type BatchVerifierFactory func() BatchVerifier

// funcVerifier adapts a stateless pairwise Verifier to the batch interface.
type funcVerifier struct {
	ts []*tree.Tree
	v  Verifier
}

func (f funcVerifier) VerifyPair(i, j, tau int) (int, bool) { return f.v(f.ts[i], f.ts[j], tau) }
func (f funcVerifier) Close()                               {}

// AdaptVerifier lifts a stateless Verifier into a BatchVerifierFactory, so
// custom verifiers (tests, ablations) run through the same batched stage as
// the arena verifier. A nil v adapts DefaultVerifier.
func AdaptVerifier(ts []*tree.Tree, v Verifier) BatchVerifierFactory {
	if v == nil {
		v = DefaultVerifier
	}
	return func() BatchVerifier { return funcVerifier{ts: ts, v: v} }
}

// VerifyStream runs the verifier over cands and hands each confirmed pair to
// emit as soon as it is decided. workers ≤ 1 verifies inline; with more, emit
// is called from multiple goroutines but never concurrently (the stream is
// serialised). The loop aborts early when ctx is cancelled or emit returns
// false; candidates decided so far keep their accounting. The elapsed
// wall-clock time is added to stats.VerifyTime and len(cands) to
// stats.Candidates.
func VerifyStream(ctx context.Context, ts []*tree.Tree, cands []Candidate, tau int, verify Verifier, workers int, stats *Stats, emit EmitFunc) {
	VerifyStreamBatched(ctx, cands, tau, AdaptVerifier(ts, verify), workers, stats, emit)
}

// VerifyStreamWith verifies cands inline with one caller-owned BatchVerifier.
// It is the sequential core the engine's chunked inline flushes run on: the
// verifier persists across flushes (the caller Closes it when the whole task
// is done), so per-flush cost is the candidates alone. Accounting matches
// VerifyStream: elapsed time into stats.VerifyTime, len(cands) into
// stats.Candidates.
func VerifyStreamWith(ctx context.Context, cands []Candidate, tau int, v BatchVerifier, stats *Stats, emit EmitFunc) {
	start := time.Now()
	defer func() {
		stats.VerifyTime += time.Since(start)
		stats.Candidates += int64(len(cands))
	}()
	for k, c := range cands {
		if k%verifyCtxStride == 0 && ctx.Err() != nil {
			return
		}
		if d, ok := v.VerifyPair(c.I, c.J, tau); ok {
			if !emit(makePair(c, d)) {
				return
			}
		}
	}
}

// VerifyStreamBatched is the batched form of VerifyStream: each worker mints
// one BatchVerifier from factory, claims candidates in chunks of
// verifyBatchChunk per lock acquisition, decides the chunk without touching
// shared state, and delivers its confirmed pairs under one lock — so the
// per-candidate cost of the stage is the verifier alone. Confirmed pairs are
// emitted serially (never concurrently), grouped by chunk; ordering across
// workers is arbitrary, as with VerifyStream. Every minted verifier is
// Closed before return, including on early abort.
func VerifyStreamBatched(ctx context.Context, cands []Candidate, tau int, factory BatchVerifierFactory, workers int, stats *Stats, emit EmitFunc) {
	start := time.Now()
	defer func() {
		stats.VerifyTime += time.Since(start)
		stats.Candidates += int64(len(cands))
	}()
	if len(cands) == 0 {
		return
	}
	if workers <= 1 || len(cands) < 2 {
		v := factory()
		defer v.Close()
		for k, c := range cands {
			if k%verifyCtxStride == 0 && ctx.Err() != nil {
				return
			}
			if d, ok := v.VerifyPair(c.I, c.J, tau); ok {
				if !emit(makePair(c, d)) {
					return
				}
			}
		}
		return
	}
	if workers > (len(cands)+verifyBatchChunk-1)/verifyBatchChunk {
		workers = (len(cands) + verifyBatchChunk - 1) / verifyBatchChunk
	}
	var next int
	var stopped bool
	var mu sync.Mutex // guards next, stopped, and the emit stream
	var wg sync.WaitGroup
	take := func() (int, int) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || next >= len(cands) {
			return -1, -1
		}
		if ctx.Err() != nil {
			stopped = true
			return -1, -1
		}
		lo := next
		hi := lo + verifyBatchChunk
		if hi > len(cands) {
			hi = len(cands)
		}
		next = hi
		return lo, hi
	}
	deliver := func(ps []Pair) {
		mu.Lock()
		defer mu.Unlock()
		if stopped {
			return
		}
		for _, p := range ps {
			if !emit(p) {
				stopped = true
				return
			}
		}
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := factory()
			defer v.Close()
			buf := make([]Pair, 0, verifyBatchChunk)
			for {
				lo, hi := take()
				if lo < 0 {
					return
				}
				buf = buf[:0]
				for k := lo; k < hi; k++ {
					c := cands[k]
					if d, ok := v.VerifyPair(c.I, c.J, tau); ok {
						buf = append(buf, makePair(c, d))
					}
				}
				if len(buf) > 0 {
					deliver(buf)
				}
			}
		}()
	}
	wg.Wait()
}

func makePair(c Candidate, d int) Pair {
	if c.I < c.J {
		return Pair{I: c.I, J: c.J, Dist: d}
	}
	return Pair{I: c.J, J: c.I, Dist: d}
}
