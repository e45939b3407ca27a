package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"treejoin"
	"treejoin/internal/synth"
)

// Query mix and sizes the workloads share.
const (
	knnK       = 3  // in-cluster KNN: the 3 nearest lie inside the query's cluster of 4
	farK       = 5  // isolated KNN: the 5th neighbour lies outside the cluster
	topK       = 5  // TopK pairs
	farQueries = 4  // size of the fixed knn_far query set
	farMinDist = 70 // the 5th neighbour of a far query lies at TED farMinDist..farMaxDist
	farMaxDist = 86
	// farSizeSlack bounds how far a knn_far query's size may lie from the
	// corpus's median tree size.
	farSizeSlack = 3
	replayOps    = 300 // operations of the log the index-build replay covers
	// queryStaticBlock is one shuffled block of query-static operations:
	// 46% search, 44% knn, 8% topk, 2% knn_far.
	blockSearch, blockKNN, blockTopK, blockFar = 23, 22, 4, 1
)

// genText renders synth.Synthetic(total, seed) as bracket lines. The first
// corpusSize lines equal synth.Synthetic(corpusSize, seed); the rest are
// the pool that serve-mixed adds from.
func genText(seed int64, total int) []string {
	ts := synth.Synthetic(total, seed)
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = treejoin.FormatBracket(t)
	}
	return out
}

// parseAll parses bracket lines into one label table.
func parseAll(lines []string, lt *treejoin.LabelTable) ([]*treejoin.Tree, error) {
	ts := make([]*treejoin.Tree, len(lines))
	for i, s := range lines {
		t, err := treejoin.ParseBracket(s, lt)
		if err != nil {
			return nil, fmt.Errorf("parsing tree %d: %w", i, err)
		}
		ts[i] = t
	}
	return ts, nil
}

// reference holds the answers every checked operation is compared with,
// computed once per run, untimed, on a separately parsed copy of the input.
type reference struct {
	pairs    []treejoin.Pair // brute-force self-join at tau, canonical order
	set      pairSet
	partners [][]int            // partners[i]: trees within tau of tree i
	top      []treejoin.Pair    // TopK answer, canonical (I, J) order
	far      []int              // knn_far query positions
	farKNN   [][]treejoin.Match // brute-force KNN(farK) answer per far query
}

// buildReference runs the brute-force self-join over ts (positions
// 0..len-1) and, when wantFar, picks the knn_far query set: members whose
// 5th neighbour by exact treejoin.Distance lies at farMinDist..farMaxDist
// and whose size lies within farSizeSlack of the median, tried in seeded
// order.
func buildReference(ts []*treejoin.Tree, seed int64, wantFar bool) (*reference, error) {
	ref := &reference{}
	cp, err := treejoin.NewCorpus(ts)
	if err != nil {
		return nil, err
	}
	ref.pairs, _, err = cp.SelfJoin(context.Background(), tau, treejoin.WithMethod(treejoin.MethodBruteForce))
	if err != nil {
		return nil, fmt.Errorf("reference join: %w", err)
	}
	ref.set = pairSetOf(ref.pairs)
	ref.partners = make([][]int, len(ts))
	for _, p := range ref.pairs {
		ref.partners[p.I] = append(ref.partners[p.I], p.J)
		ref.partners[p.J] = append(ref.partners[p.J], p.I)
	}
	if len(ref.pairs) < topK {
		return nil, fmt.Errorf("reference join holds %d pairs, fewer than TopK's %d", len(ref.pairs), topK)
	}
	ref.top = topKOf(ref.pairs, topK)
	sortPairs(ref.top)
	if !wantFar {
		return ref, nil
	}
	// An isolated KNN verifies nearly the whole corpus at its last
	// threshold, so its cost grows with the query's size; queries of about
	// the median size keep that cost comparable across seeds.
	sizes := make([]int, len(ts))
	for i, t := range ts {
		sizes[i] = t.Size()
	}
	sort.Ints(sizes)
	medSize := sizes[len(sizes)/2]
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, q := range rng.Perm(len(ts)) {
		if len(ref.far) == farQueries {
			break
		}
		if d := ts[q].Size() - medSize; d < -farSizeSlack || d > farSizeSlack {
			continue
		}
		want := bruteKNN(allDistances(ts, ts[q]), farK)
		if d := want[farK-1].Dist; d < farMinDist || d > farMaxDist {
			continue
		}
		ref.far = append(ref.far, q)
		ref.farKNN = append(ref.farKNN, want)
	}
	if len(ref.far) < farQueries {
		return nil, fmt.Errorf("found %d knn_far queries, want %d", len(ref.far), farQueries)
	}
	return ref, nil
}

// allDistances computes the exact distance from q to every tree, on
// GOMAXPROCS goroutines.
func allDistances(ts []*treejoin.Tree, q *treejoin.Tree) []int {
	out := make([]int, len(ts))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ts) {
					return
				}
				out[i] = treejoin.Distance(q, ts[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// op is one benchmark operation: call performs it (the timed part) and
// returns a check of its output, run untimed right after.
type op struct {
	kind  string
	layer string // the public call the traced span around call is named after
	call  func(ctx context.Context) (check func() error, err error)
	key   int // the tree the operation concerns (see logEntry), -1 for none
}

var reqIDs atomic.Int64

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// exec runs one operation and books it. In a traced run every other
// operation of a kind carries spans: a root span with a request id, a child
// around the public call and a child around the output check. The latency
// is the public call alone; the check is benchmark work.
func (r *run) exec(ctx context.Context, o op, record bool) (opCPU float64) {
	l := r.log(o.kind)
	traced := r.traced && l.attempted%2 == 0
	var tr *tracer
	if traced {
		tr = r.tr
	}
	req := reqIDs.Add(1)
	root := tr.begin("op."+o.kind, -1, req)
	c0 := 0.0
	if r.traced {
		c0 = cpuSeconds()
	}
	child := tr.begin(o.layer, root, req)
	t0 := time.Now()
	check, err := o.call(ctx)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(child)
	if r.traced {
		opCPU = cpuSeconds() - c0
	}
	if err == nil && check != nil {
		ck := tr.begin("bench.check", root, req)
		err = check()
		tr.end(ck)
	}
	tr.end(root)
	if record {
		r.record(o.kind, ms, traced, err)
		r.seq = append(r.seq, logEntry{o.kind, o.key})
	} else if err != nil {
		r.notes = append(r.notes, fmt.Sprintf("warm-up %s: %v", o.kind, err))
		r.record(o.kind+"_warmup", ms, false, err)
	}
	return opCPU
}

// enough reports whether every operation named in r.p90Ops has the samples
// a p90 needs.
func (r *run) enough() bool {
	for _, k := range r.p90Ops {
		if l := r.ops[k]; l == nil || len(l.ms) < 10*minTail {
			return false
		}
	}
	return true
}

// timedLoop runs shuffled blocks of operations until --seconds have passed
// at a block boundary and every p90 operation has 100 samples, or until
// twice --seconds have passed. It returns the CPU the operations used
// (traced runs only).
func (r *run) timedLoop(ctx context.Context, next func() []op) (opCPU float64) {
	start := time.Now()
	for {
		for _, o := range next() {
			opCPU += r.exec(ctx, o, true)
		}
		el := time.Since(start).Seconds()
		if el >= r.seconds && r.enough() || el >= 2*r.seconds {
			break
		}
	}
	r.wall = time.Since(start)
	return opCPU
}

// inProcess runs join-batch or query-static: one caller over a static
// Corpus in this process.
func (r *run) inProcess() error {
	ctx := context.Background()
	text := genText(r.seed, corpusSize)
	refTrees, err := parseAll(text, treejoin.NewLabelTable())
	if err != nil {
		return err
	}
	queryStatic := r.workload == "query-static"
	ref, err := buildReference(refTrees, r.seed, queryStatic)
	if err != nil {
		return err
	}
	refTrees = nil

	var cp *treejoin.Corpus
	var ts []*treejoin.Tree
	var ops func(rng *rand.Rand) []op
	var warm []op
	rng := rand.New(rand.NewSource(r.seed))
	farNext := 0
	var sigSources []string

	mk := func() {
		pos := func(p int) *treejoin.Tree {
			if p < 0 || p >= len(ts) {
				return nil
			}
			return ts[p]
		}
		all := func(int) bool { return true }
		selfjoin := op{"selfjoin", "treejoin.Corpus.SelfJoin", func(ctx context.Context) (func() error, error) {
			ps, _, err := cp.SelfJoin(ctx, tau)
			return func() error { return checkPairs(ps, ref.pairs) }, err
		}, -1}
		sigjoin := op{"sigjoin", "treejoin.Corpus.SelfJoin", func(ctx context.Context) (func() error, error) {
			ps, st, err := cp.SelfJoin(ctx, tau, sigjoinOpts()...)
			return func() error {
				sigSources = append(sigSources, st.Plan.Source)
				return checkPairs(ps, ref.pairs)
			}, err
		}, -1}
		search := func(q int) op {
			return op{"search", "treejoin.Corpus.Search", func(ctx context.Context) (func() error, error) {
				ms, err := cp.Search(ctx, ts[q], tau)
				return func() error {
					if err := checkMatches(ts[q], q, ms, pos); err != nil {
						return err
					}
					return checkSearchSet(ms, q, ref.set, ref.partners[q], all, all)
				}, err
			}, q}
		}
		knn := func(q int) op {
			return op{"knn", "treejoin.Corpus.KNN", func(ctx context.Context) (func() error, error) {
				ms, err := cp.KNN(ctx, ts[q], knnK)
				return func() error {
					if len(ms) != knnK {
						return fmt.Errorf("%d neighbours, want %d", len(ms), knnK)
					}
					return checkMatches(ts[q], q, ms, pos)
				}, err
			}, q}
		}
		topk := op{"topk", "treejoin.Corpus.TopK", func(ctx context.Context) (func() error, error) {
			ps, err := cp.TopK(ctx, topK)
			return func() error { return checkPairs(ps, ref.top) }, err
		}, -1}
		far := func(i int) op {
			q := ref.far[i]
			return op{"knn_far", "treejoin.Corpus.KNN", func(ctx context.Context) (func() error, error) {
				ms, err := cp.KNN(ctx, ts[q], farK)
				return func() error { return checkKNN(ms, ref.farKNN[i]) }, err
			}, q}
		}
		if !queryStatic {
			warm = []op{selfjoin, sigjoin}
			first := rng.Intn(2)
			ops = func(*rand.Rand) []op {
				if first == 0 {
					return []op{selfjoin, sigjoin}
				}
				return []op{sigjoin, selfjoin}
			}
			return
		}
		warm = []op{search(0), knn(0), topk, far(0)}
		ops = func(rng *rand.Rand) []op {
			var b []op
			for i := 0; i < blockSearch; i++ {
				b = append(b, search(rng.Intn(len(ts))))
			}
			for i := 0; i < blockKNN; i++ {
				b = append(b, knn(rng.Intn(len(ts))))
			}
			for i := 0; i < blockTopK; i++ {
				b = append(b, topk)
			}
			for i := 0; i < blockFar; i++ {
				b = append(b, far(farNext%len(ref.far)))
				farNext++
			}
			rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
			return b
		}
	}

	// The gated means cover the timings that repeat across runs of the
	// same code. Over ten seeds the p90s of sigjoin and knn spread by 26%
	// and 21% (interquartile range over median), so they are reported but
	// not gated.
	if queryStatic {
		r.p50Ops = []string{"search", "knn", "topk", "knn_far"}
		r.p90Ops = []string{"search"}
	} else {
		r.p50Ops = []string{"selfjoin", "sigjoin"}
		r.p90Ops = []string{"selfjoin"}
	}
	for rep := 0; rep < setupReps; rep++ {
		cp, ts = nil, nil
		runtime.GC()
		t0 := time.Now()
		ts, err = parseAll(text, treejoin.NewLabelTable())
		if err != nil {
			return err
		}
		if cp, err = treejoin.NewCorpus(ts); err != nil {
			return err
		}
		r.loadMs = append(r.loadMs, float64(time.Since(t0).Nanoseconds())/1e6)
		mk()
		for _, o := range warm {
			r.exec(ctx, o, false)
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
	}
	sigSources = nil

	runtime.GC()
	debug.FreeOSMemory()
	rssReset := resetPeakRSS()
	cache0 := cp.CacheStats()
	cpu0 := cpuSeconds()
	opCPU := r.timedLoop(ctx, func() []op { return ops(rng) })
	cpuAll := cpuSeconds() - cpu0
	cache1 := cp.CacheStats()
	r.peakRSSMB = peakRSSMB(0)
	if !rssReset {
		r.notes = append(r.notes, "peak RSS could not be reset after set-up; it includes set-up")
	}

	r.params = map[string]any{
		"corpus":    fmt.Sprintf("synth.Synthetic(%d, seed)", corpusSize),
		"tau":       tau,
		"clients":   1,
		"loop":      "closed",
		"reference": "MethodBruteForce self-join at tau, computed once per run",
	}
	if queryStatic {
		r.params["block"] = map[string]int{"search": blockSearch, "knn": blockKNN, "topk": blockTopK, "knn_far": blockFar}
		r.params["knn_k"], r.params["far_k"], r.params["topk_k"] = knnK, farK, topK
		r.params["far_queries"] = ref.far
		r.params["far_5th_dist"] = func() []int {
			var d []int
			for _, w := range ref.farKNN {
				d = append(d, w[farK-1].Dist)
			}
			return d
		}()
	} else {
		r.params["sigjoin"] = "MethodPQGram + PrefilterHistogram + WithAutoPlan"
	}
	if !r.traced {
		return nil
	}
	r.setLayer("engine.cache_hit_frac", "frac", hitFrac(cache0, cache1))
	r.setLayer("bench.client_cpu_frac", "frac", (cpuAll-opCPU)/(r.wall.Seconds()*float64(runtime.NumCPU())))
	tokenFrac := -1.0
	if len(sigSources) > 0 {
		n := 0
		for _, s := range sigSources {
			if s == "token-index" {
				n++
			}
		}
		tokenFrac = float64(n) / float64(len(sigSources))
	}
	lay := &layerRun{r: r, ts: ts, cp: cp, ref: ref, text: text}
	if err := lay.common(ctx, tokenFrac); err != nil {
		return err
	}
	if queryStatic {
		err = lay.indexBuildsPerRead(r.seq, func(k int) *treejoin.Tree { return ts[k] }, replayOps)
	} else {
		r.setLayer("core.index_builds_per_read", "count", 0)
		r.notes = append(r.notes, "core.index_builds_per_read: join-batch makes no index reads; reported as 0")
	}
	if err != nil {
		return err
	}
	lay.noServer()
	lay.finishTrace()
	return nil
}

// sigjoinOpts is the signature join: PQG + HIST, auto-planned.
func sigjoinOpts() []treejoin.Option {
	return []treejoin.Option{
		treejoin.WithMethod(treejoin.MethodPQGram),
		treejoin.WithPrefilter(treejoin.PrefilterHistogram),
		treejoin.WithAutoPlan(),
	}
}

func hitFrac(a, b treejoin.CacheStats) float64 {
	h, m := b.Hits-a.Hits, b.Misses-a.Misses
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
