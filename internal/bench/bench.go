// Package bench is the experiment harness that regenerates the paper's
// evaluation (Figures 10–14, Table 1's parameter grid, and the partitioning
// ablation the paper describes in §4.3's closing paragraph). Each figure
// function runs the relevant joins and returns text tables whose rows mirror
// the series of the corresponding plot; cmd/benchfig prints them, and
// bench_test.go wraps them as testing.B benchmarks.
//
// The paper's collections (up to 100K trees) are scaled by Config.Scale so
// experiments finish in laptop time; the shape of the comparison — who wins,
// by what factor, how gaps move with τ and cardinality — is the quantity
// being reproduced, not the absolute seconds (see EXPERIMENTS.md).
package bench

import (
	"fmt"
	"time"

	"treejoin/internal/baseline"
	"treejoin/internal/core"
	"treejoin/internal/engine"
	"treejoin/internal/pqgram"
	"treejoin/internal/sim"
	"treejoin/internal/synth"
	"treejoin/internal/tree"
)

// Method identifies a join algorithm/configuration under measurement.
type Method string

const (
	STR       Method = "STR"
	SET       Method = "SET"
	PRT       Method = "PRT"
	PRTRandom Method = "PRT-rand"  // random δ-partitioning (ablation)
	PRTPaper  Method = "PRT-paper" // paper's position ranges (ablation)
	PRTNoPos  Method = "PRT-nopos" // no position layer (ablation)
	BF        Method = "BF"        // size filter only (oracle / REL)
	HIST      Method = "HIST"      // Kailing et al. histogram bounds (extension)
	EUL       Method = "EUL"       // Akutsu et al. Euler-string bound (extension)
	PQG       Method = "PQG"       // Euler-gram bag bound (extension)
	PRTHist   Method = "HIST→PRT"  // HIST prefilter chained before PartSJ
	STRHist   Method = "HIST→STR"  // HIST prefilter chained before STR
	PQGHist   Method = "HIST→PQG"  // HIST prefilter chained before PQG
)

// Result is one join execution's measurements.
type Result struct {
	Method     Method
	Dataset    string
	Tau        int
	Trees      int
	Candidates int64
	Results    int64
	CandGen    time.Duration // candidate generation (+ partitioning for PRT)
	Verify     time.Duration // exact TED computation
	Stages     []sim.StageStats
}

// Total is the end-to-end join time.
func (r Result) Total() time.Duration { return r.CandGen + r.Verify }

// Run executes one join and collects its measurements.
func Run(m Method, dataset string, ts []*tree.Tree, tau, workers int) Result {
	var st *sim.Stats
	switch m {
	case STR:
		_, st = baseline.STR(ts, baseline.Options{Tau: tau, Workers: workers})
	case SET:
		_, st = baseline.SET(ts, baseline.Options{Tau: tau, Workers: workers})
	case BF:
		_, st = baseline.BruteForce(ts, baseline.Options{Tau: tau, Workers: workers})
	case HIST:
		_, st = baseline.HIST(ts, baseline.Options{Tau: tau, Workers: workers})
	case EUL:
		_, st = baseline.EUL(ts, baseline.Options{Tau: tau, Workers: workers})
	case PRTRandom:
		_, st = core.SelfJoin(ts, core.Options{Tau: tau, Workers: workers, RandomPartition: true, Seed: 42})
	case PRTPaper:
		_, st = core.SelfJoin(ts, core.Options{Tau: tau, Workers: workers, Position: core.PositionPaper})
	case PRTNoPos:
		_, st = core.SelfJoin(ts, core.Options{Tau: tau, Workers: workers, Position: core.PositionOff})
	case PQG:
		_, st = loopJob(tau, workers, pqgram.Filter(0)).SelfJoin(ts)
	case PRTHist:
		_, st = core.Options{Tau: tau, Workers: workers}.
			Job(0, []engine.PairFilter{baseline.HISTFilter()}).SelfJoin(ts)
	case STRHist:
		_, st = loopJob(tau, workers, baseline.HISTFilter(), baseline.STRFilter()).SelfJoin(ts)
	case PQGHist:
		_, st = loopJob(tau, workers, baseline.HISTFilter(), pqgram.Filter(0)).SelfJoin(ts)
	default:
		_, st = core.SelfJoin(ts, core.Options{Tau: tau, Workers: workers})
	}
	return Result{
		Method:     m,
		Dataset:    dataset,
		Tau:        tau,
		Trees:      len(ts),
		Candidates: st.Candidates,
		Results:    st.Results,
		CandGen:    st.CandTime + st.PartitionTime,
		Verify:     st.VerifyTime,
		Stages:     st.Stages,
	}
}

// loopJob assembles a sorted-nested-loop engine job with the given filter
// chain — the shape of every non-PRT method.
func loopJob(tau, workers int, filters ...engine.PairFilter) engine.Job {
	return engine.Job{
		Source:  engine.SortedLoop(),
		Filters: filters,
		Tau:     tau,
		Workers: workers,
	}
}

// Dataset is a named tree collection.
type Dataset struct {
	Name  string
	Trees []*tree.Tree
}

// Config controls an experiment run.
type Config struct {
	// Scale multiplies the paper's collection cardinalities (100K/50K/10K/
	// 10K). Scale 0.01 gives 1000/500/100/100 trees.
	Scale float64
	// Seed drives the data generators.
	Seed int64
	// Workers parallelises TED verification (0/1 = sequential, matching the
	// paper's single-threaded runs).
	Workers int
	// Progress, when non-nil, receives one line per completed join.
	Progress func(string)
}

func (c Config) n(base int) int {
	n := int(float64(base) * c.Scale)
	if n < 20 {
		n = 20
	}
	return n
}

func (c Config) report(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(fmt.Sprintf(format, args...))
	}
}

// Datasets materialises the four collections of §4 at the configured scale.
func Datasets(c Config) []Dataset {
	return []Dataset{
		{"Swissprot", synth.Swissprot(c.n(100000), c.Seed)},
		{"Treebank", synth.Treebank(c.n(50000), c.Seed)},
		{"Sentiment", synth.Sentiment(c.n(10000), c.Seed)},
		{"Synthetic", synth.Synthetic(c.n(10000), c.Seed)},
	}
}
