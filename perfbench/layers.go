package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"treejoin"
	"treejoin/internal/core"
	"treejoin/internal/engine"
	"treejoin/internal/sim"
	"treejoin/internal/ted"
	"treejoin/internal/tree"
)

// Repetitions of each standalone layer replay; the metric is their median.
const layerReps = 5

// logEntry is one operation of the timed part, in completion order: its
// kind and the tree it concerned (query position, or the key of the tree a
// write added or removed; -1 for none).
type logEntry struct {
	kind string
	key  int
}

// layerRun measures the per-layer metrics of a traced run. Operations the
// program exposes no hook inside are replayed standalone against the
// workload's state (its trees, its corpus), each replay under a root span
// with a child span around every public call it makes.
type layerRun struct {
	r    *run
	ts   []*treejoin.Tree // the workload's live trees, by position
	cp   *treejoin.Corpus // a corpus over ts
	ref  *reference
	text []string // bracket lines: ts first, then spare trees for writes
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timed runs f under a child span of parent and returns its duration.
func (l *layerRun) timed(name string, parent int, req int64, f func()) time.Duration {
	id := l.r.tr.begin(name, parent, req)
	t0 := time.Now()
	f()
	d := time.Since(t0)
	l.r.tr.end(id)
	return d
}

// replay opens a root span for one standalone replay.
func (l *layerRun) replay(name string) (root int, req int64, done func()) {
	req = reqIDs.Add(1)
	root = l.r.tr.begin("replay."+name, -1, req)
	return root, req, func() { l.r.tr.end(root) }
}

// common measures the layers every workload's trees exercise: the TED
// kernels, the verify stage, the engine run, the planner, the PartSJ index
// and search paths, the Corpus API with its store, and sharding.
// tokenFrac is the measured share of sigjoins planned onto the token index,
// or negative when the timed part ran none.
func (l *layerRun) common(ctx context.Context, tokenFrac float64) error {
	r := l.r
	ts := l.ts
	cache := engine.NewCache()
	workers := runtime.GOMAXPROCS(0)
	pos := make(map[*tree.Tree]int, len(ts))
	for i, t := range ts {
		pos[t] = i
	}

	// Engine run with a verifier hook: captures the tau candidates and
	// nests one ted.verify span per candidate (overlapping across the
	// parallel workers) inside the engine span.
	views := engine.ArenaFor(cache, ts)
	var mu sync.Mutex
	var cands []sim.Candidate
	root, req, done := l.replay("selfjoin_hooked")
	var runSpan int
	job := core.Options{Tau: tau, Workers: workers}.Job(0, nil)
	job.Cache = cache
	job.Verifier = func(t1, t2 *tree.Tree, tau int) (int, bool) {
		i, j := pos[t1], pos[t2]
		id := r.tr.begin("ted.verify", runSpan, req)
		s := ted.AcquireScratch()
		d, ok := ted.DistanceBoundedView(views[i], views[j], tau, s, nil)
		ted.ReleaseScratch(s)
		r.tr.end(id)
		mu.Lock()
		cands = append(cands, sim.Candidate{I: i, J: j})
		mu.Unlock()
		return d, ok
	}
	runSpan = r.tr.begin("engine.Job.StreamSelf", root, req)
	hooked, err := job.StreamSelf(ctx, ts, func(sim.Pair) bool { return true })
	r.tr.end(runSpan)
	done()
	if err != nil {
		return fmt.Errorf("hooked engine run: %w", err)
	}
	if hooked.Results != int64(len(l.ref.pairs)) {
		return fmt.Errorf("hooked engine run found %d pairs, reference %d", hooked.Results, len(l.ref.pairs))
	}
	self := selfTimes(r.tr.snapshot())
	r.setLayer("engine.run_self_ms", "ms", float64(self[runSpan])/1e6)

	// TED arena kernel over the captured candidates, one goroutine.
	root, req, done = l.replay("ted_arena")
	var arena []float64
	tc := new(ted.Counters)
	for rep := 0; rep < layerReps; rep++ {
		var c *ted.Counters
		if rep == 0 {
			c = tc
		}
		d := l.timed("ted.DistanceBoundedView", root, req, func() {
			s := ted.AcquireScratch()
			for _, p := range cands {
				ted.DistanceBoundedView(views[p.I], views[p.J], tau, s, c)
			}
			ted.ReleaseScratch(s)
		})
		arena = append(arena, float64(d.Nanoseconds())/float64(len(cands)))
	}
	done()
	r.setLayer("ted.arena_ns_per_pair", "ns", median(arena))
	r.setLayer("ted.dp_avoided_frac", "frac", float64(tc.DPAvoided.Load())/float64(len(cands)))
	r.setLayer("ted.band_abort_frac", "1/pair", float64(tc.BandAborts.Load())/float64(len(cands)))

	// Verify stage at GOMAXPROCS workers and at one.
	sort.Slice(cands, func(a, b int) bool {
		return cands[a].I < cands[b].I || cands[a].I == cands[b].I && cands[a].J < cands[b].J
	})
	root, req, done = l.replay("sim_verify")
	for _, w := range []int{workers, 1} {
		var vt []float64
		var results int64
		for rep := 0; rep < layerReps; rep++ {
			var st sim.Stats
			results = 0
			d := l.timed("sim.VerifyStreamBatched", root, req, func() {
				sim.VerifyStreamBatched(ctx, cands, tau, engine.NewArenaVerifiers(ts, cache, nil), w, &st,
					func(sim.Pair) bool { results++; return true })
			})
			vt = append(vt, ms(d))
		}
		if w == 1 {
			r.setLayer("sim.verify_ms_w1", "ms", median(vt))
		} else {
			r.setLayer("sim.verify_ms", "ms", median(vt))
			r.setLayer("sim.result_frac", "frac", float64(results)/float64(len(cands)))
		}
	}
	done()

	// Engine run (PartSJ source, default arena verifier) at GOMAXPROCS and
	// one worker, on a warm artifact cache.
	root, req, done = l.replay("engine_run")
	for _, w := range []int{workers, 1} {
		var rt, cand, part []float64
		var st *sim.Stats
		for rep := 0; rep < layerReps; rep++ {
			j := core.Options{Tau: tau, Workers: w}.Job(0, nil)
			j.Cache = cache
			var err error
			d := l.timed("engine.Job.StreamSelf", root, req, func() {
				st, err = j.StreamSelf(ctx, ts, func(sim.Pair) bool { return true })
			})
			if err != nil {
				return fmt.Errorf("engine run: %w", err)
			}
			rt = append(rt, ms(d))
			cand = append(cand, ms(st.CandWall))
			part = append(part, ms(st.PartitionTime))
		}
		if w == 1 {
			r.setLayer("engine.run_ms_w1", "ms", median(rt))
			continue
		}
		r.setLayer("engine.run_ms", "ms", median(rt))
		r.setLayer("engine.cand_ms", "ms", median(cand))
		r.setLayer("core.partition_ms", "ms", median(part))
		r.setLayer("core.match_hit_frac", "frac", ratio(st.MatchHits, st.MatchTests))
	}
	done()

	// Signature join through the Corpus: filter-stage attribution, the
	// planner's explanation and its source choice.
	root, req, done = l.replay("sigjoin")
	var sst treejoin.Stats
	var sources []string
	for rep := 0; rep < 3; rep++ {
		var err error
		l.timed("treejoin.Corpus.SelfJoin", root, req, func() {
			_, sst, err = l.cp.SelfJoin(ctx, tau, sigjoinOpts()...)
		})
		if err != nil {
			return fmt.Errorf("sigjoin replay: %w", err)
		}
		sources = append(sources, sst.Plan.Source)
	}
	for _, name := range []string{"HIST", "PQG"} {
		v := 0.0
		for _, s := range sst.Stages {
			if s.Name == name {
				v = ratio(s.Pruned, s.In)
			}
		}
		r.setLayer("engine.stage_prune_frac."+name, "frac", v)
	}
	r.setLayer("engine.cand_per_result", "ratio", ratio(sst.Candidates, sst.Results))
	var ex []float64
	for rep := 0; rep < layerReps; rep++ {
		var err error
		d := l.timed("treejoin.Corpus.Explain", root, req, func() {
			_, err = l.cp.Explain(ctx, tau, sigjoinOpts()...)
		})
		if err != nil {
			return fmt.Errorf("explain: %w", err)
		}
		ex = append(ex, ms(d))
	}
	done()
	r.setLayer("plan.explain_ms", "ms", median(ex))
	if tokenFrac < 0 {
		n := 0
		for _, s := range sources {
			if s == "token-index" {
				n++
			}
		}
		tokenFrac = float64(n) / float64(len(sources))
	}
	r.setLayer("plan.token_index_frac", "frac", tokenFrac)

	// PartSJ search index: build, warm probes, TopK.
	root, req, done = l.replay("core_index")
	var build []float64
	var ix *core.Index
	for rep := 0; rep < 3; rep++ {
		d := l.timed("core.NewIndexCached", root, req, func() {
			ix = core.NewIndexCached(ts, core.Options{Tau: tau}, cache)
		})
		build = append(build, ms(d))
	}
	r.setLayer("core.index_build_ms", "ms", median(build))
	rng := rand.New(rand.NewSource(r.seed + 7))
	var probe []float64
	for k := 0; k < 200; k++ {
		q := ts[rng.Intn(len(ts))]
		d := l.timed("core.Index.SearchCtx", root, req, func() { ix.SearchCtx(ctx, q) })
		probe = append(probe, float64(d.Nanoseconds())/1e3)
	}
	r.setLayer("core.search_us", "us", median(probe))
	var topk []float64
	for rep := 0; rep < 3; rep++ {
		d := l.timed("core.TopKCtx", root, req, func() { core.TopKCtx(ctx, ts, topK, core.Options{}, 0, cache) })
		topk = append(topk, ms(d))
	}
	r.setLayer("core.topk_ms", "ms", median(topk))
	done()

	if err := l.farKNN(ctx, cache); err != nil {
		return err
	}
	if len(r.loadMs) > 0 {
		r.setLayer("treejoin.load_ms", "ms", median(r.loadMs))
	} else {
		root, req, done = l.replay("load")
		var load []float64
		for rep := 0; rep < 3; rep++ {
			d := l.timed("treejoin.NewCorpus", root, req, func() {
				t, _ := parseAll(l.text[:len(ts)], treejoin.NewLabelTable())
				treejoin.NewCorpus(t)
			})
			load = append(load, ms(d))
		}
		done()
		r.setLayer("treejoin.load_ms", "ms", median(load))
	}
	if err := l.storeWrites(); err != nil {
		return err
	}
	return l.sharding(ctx)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// farKNN replays one knn_far query on a fresh per-tau index set whose
// verifier hook records the pairs each round verifies: the rounds are the
// indexes the expanding search built, and the pairs of the last round are
// replayed through the Prep kernel.
func (l *layerRun) farKNN(ctx context.Context, cache *engine.Cache) error {
	r := l.r
	q := 0
	if len(l.ref.far) > 0 {
		q = l.ref.far[0]
	}
	qt := l.ts[q]
	qp := ted.NewPrep(qt)
	prep := func(t *tree.Tree) *ted.Prep {
		if t == qt {
			return qp
		}
		return engine.PrepFor(cache, t)
	}
	var mu sync.Mutex
	byTau := map[int][][2]*tree.Tree{}
	opts := core.Options{Tau: 1, Verifier: func(t1, t2 *tree.Tree, tau int) (int, bool) {
		mu.Lock()
		byTau[tau] = append(byTau[tau], [2]*tree.Tree{t1, t2})
		mu.Unlock()
		return ted.DistanceBoundedPrep(prep(t1), prep(t2), tau, nil)
	}}
	root, req, done := l.replay("knn_far")
	knn := core.NewKNNCached(l.ts, opts, cache, 16)
	var ms5 []core.Match
	var err error
	l.timed("core.KNN.NearestCtx", root, req, func() { ms5, err = knn.NearestCtx(ctx, qt, farK) })
	if err != nil {
		return fmt.Errorf("knn_far replay: %w", err)
	}
	if len(l.ref.farKNN) > 0 {
		if err := checkKNN(ms5, l.ref.farKNN[0]); err != nil {
			return fmt.Errorf("knn_far replay: %w", err)
		}
	}
	r.setLayer("core.knn_rounds", "count", float64(knn.CachedIndexes()))
	last := 0
	for t := range byTau {
		last = max(last, t)
	}
	pairs := byTau[last]
	var ns []float64
	for rep := 0; rep < 3; rep++ {
		d := l.timed("ted.DistanceBoundedPrep", root, req, func() {
			for _, p := range pairs {
				ted.DistanceBoundedPrep(prep(p[0]), prep(p[1]), last, nil)
			}
		})
		ns = append(ns, float64(d.Nanoseconds())/float64(max(1, len(pairs))))
	}
	done()
	r.setLayer("ted.prep_ns_per_pair", "ns", median(ns))
	return nil
}

// storeWrites measures the Corpus mutation path on a store-backed corpus
// with the default sync policy, the store's write amplification, and
// OpenSharded on the resulting store.
func (l *layerRun) storeWrites() error {
	r := l.r
	dir := filepath.Join(r.workdir, "replay-store")
	root, req, done := l.replay("store_writes")
	defer done()
	cp, err := treejoin.Open(dir)
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	// Trees added to a store-backed corpus intern into its label table.
	base, err := parseAll(l.text[:len(l.ts)], cp.Labels())
	if err != nil {
		cp.Close()
		return err
	}
	extra, err := parseAll(genText(r.seed+1, 60), cp.Labels())
	if err != nil {
		cp.Close()
		return err
	}
	if _, err := cp.Add(base...); err != nil {
		cp.Close()
		return fmt.Errorf("store ingest: %w", err)
	}
	st0, _ := cp.StoreStats()
	var add, rem []float64
	var ids []int
	for _, t := range extra {
		var got []int
		d := l.timed("treejoin.Corpus.Add", root, req, func() { got, err = cp.Add(t) })
		if err != nil {
			cp.Close()
			return fmt.Errorf("store add: %w", err)
		}
		ids = append(ids, got...)
		add = append(add, float64(d.Nanoseconds())/1e3)
	}
	for _, id := range ids {
		var n int
		d := l.timed("treejoin.Corpus.Remove", root, req, func() { n = cp.Remove(id) })
		if n != 1 {
			cp.Close()
			return fmt.Errorf("store remove of %d removed %d", id, n)
		}
		rem = append(rem, float64(d.Nanoseconds())/1e3)
	}
	st1, _ := cp.StoreStats()
	if err := cp.Close(); err != nil {
		return fmt.Errorf("store close: %w", err)
	}
	writes := float64(len(add) + len(rem))
	r.setLayer("treejoin.add_us", "us", median(add))
	r.setLayer("treejoin.remove_us", "us", median(rem))
	r.setLayer("segstore.flushes_per_1k_writes", "1/1k", float64(st1.FlushRuns-st0.FlushRuns)*1000/writes)
	r.setLayer("segstore.compactions_per_1k_writes", "1/1k", float64(st1.CompactionRuns-st0.CompactionRuns)*1000/writes)
	r.setLayer("segstore.bytes_per_user_byte", "B/B", float64(dirBytes(dir))/float64(textBytes(l.text[:len(l.ts)])))
	open, err := l.openSharded(dir, root, req)
	if err != nil {
		return err
	}
	r.setLayer("segstore.open_ms", "ms", open)
	return nil
}

// openSharded opens the store dir through treejoin.OpenSharded at the
// server's default shard count, layerReps times, and returns the median.
func (l *layerRun) openSharded(dir string, root int, req int64) (float64, error) {
	var open []float64
	for rep := 0; rep < layerReps; rep++ {
		var sc *treejoin.ShardedCorpus
		var err error
		d := l.timed("treejoin.OpenSharded", root, req, func() { sc, err = treejoin.OpenSharded(dir, serverShards) })
		if err != nil {
			return 0, fmt.Errorf("OpenSharded: %w", err)
		}
		if err := sc.Close(); err != nil {
			return 0, fmt.Errorf("closing sharded store: %w", err)
		}
		open = append(open, ms(d))
	}
	return median(open), nil
}

// sharding compares a ShardedCorpus at the server's shard count with a
// single Corpus over the same trees.
func (l *layerRun) sharding(ctx context.Context) error {
	r := l.r
	root, req, done := l.replay("sharding")
	defer done()
	sc, err := treejoin.NewSharded(serverShards, l.ts)
	if err != nil {
		return err
	}
	single, err := treejoin.NewCorpus(l.ts)
	if err != nil {
		return err
	}
	type joiner interface {
		SelfJoin(context.Context, int, ...treejoin.Option) ([]treejoin.Pair, treejoin.Stats, error)
		KNN(context.Context, *treejoin.Tree, int, ...treejoin.Option) ([]treejoin.Match, error)
	}
	measure := func(name string, c joiner) (join, knn float64, err error) {
		var js, ks []float64
		rng := rand.New(rand.NewSource(r.seed + 11))
		for rep := 0; rep <= 3; rep++ { // the first round warms the cache
			var ps []treejoin.Pair
			d := l.timed(name+".SelfJoin", root, req, func() { ps, _, err = c.SelfJoin(ctx, tau) })
			if err != nil {
				return 0, 0, err
			}
			if len(ps) != len(l.ref.pairs) {
				return 0, 0, fmt.Errorf("%s self-join found %d pairs, reference %d", name, len(ps), len(l.ref.pairs))
			}
			if rep > 0 {
				js = append(js, ms(d))
			}
		}
		for k := 0; k < 40; k++ {
			q := l.ts[rng.Intn(len(l.ts))]
			d := l.timed(name+".KNN", root, req, func() { _, err = c.KNN(ctx, q, knnK) })
			if err != nil {
				return 0, 0, err
			}
			if k >= 10 {
				ks = append(ks, ms(d))
			}
		}
		return median(js), median(ks), nil
	}
	sj, sk, err := measure("treejoin.ShardedCorpus", sc)
	if err != nil {
		return fmt.Errorf("sharded replay: %w", err)
	}
	cj, ck, err := measure("treejoin.Corpus", single)
	if err != nil {
		return fmt.Errorf("single-corpus replay: %w", err)
	}
	r.setLayer("treejoin.sharded_selfjoin_ratio", "ratio", sj/cj)
	r.setLayer("treejoin.sharded_knn_ratio", "ratio", sk/ck)
	return nil
}

// indexBuildsPerRead replays the reads and writes of an operation log
// in-process on the core search machinery — one per-tau index set per
// membership epoch, as the Corpus keeps it — after one warm-up read of each
// kind, and counts the per-tau indexes built per search or knn.
func (l *layerRun) indexBuildsPerRead(log []logEntry, treeOf func(key int) *treejoin.Tree, maxOps int) error {
	r := l.r
	root, req, done := l.replay("index_builds")
	defer done()
	ctx := context.Background()
	cache := engine.NewCache()
	live := append([]*tree.Tree(nil), l.ts...)
	knn := core.NewKNNCached(live, core.Options{Tau: 1}, cache, core.DefaultIndexCacheCap)
	read := func(e logEntry) error {
		var err error
		switch e.kind {
		case "search":
			l.timed("core.Index.SearchCtx", root, req, func() { _, err = knn.IndexAt(tau).SearchCtx(ctx, treeOf(e.key)) })
		case "knn":
			l.timed("core.KNN.NearestCtx", root, req, func() { _, err = knn.NearestCtx(ctx, treeOf(e.key), knnK) })
		}
		return err
	}
	for _, k := range []string{"search", "knn"} {
		if err := read(logEntry{k, 0}); err != nil {
			return err
		}
	}
	reads, builds := 0, 0
	for i, e := range log {
		if i >= maxOps {
			break
		}
		switch e.kind {
		case "search", "knn":
			before := knn.CachedIndexes() + int(knn.Evictions())
			if err := read(e); err != nil {
				return err
			}
			builds += knn.CachedIndexes() + int(knn.Evictions()) - before
			reads++
		case "add", "remove":
			t := treeOf(e.key)
			if e.kind == "add" {
				live = append(live, t)
			} else {
				for j, u := range live {
					if u == t {
						live = append(live[:j], live[j+1:]...)
						break
					}
				}
			}
			knn = core.NewKNNCached(live, core.Options{Tau: 1}, cache, core.DefaultIndexCacheCap)
		}
	}
	v := 0.0
	if reads > 0 {
		v = float64(builds) / float64(reads)
	}
	r.setLayer("core.index_builds_per_read", "count", v)
	r.params["index_builds_replayed_ops"] = min(len(log), maxOps)
	return nil
}

// noServer reports the treejoind metrics of an in-process workload, which
// makes no HTTP request: no overhead, no responses, no refusals.
func (l *layerRun) noServer() {
	for _, k := range []string{"search", "knn", "selfjoin", "write"} {
		l.r.setLayer("treejoind.overhead_ms."+k, "ms", 0)
	}
	l.r.setLayer("treejoind.selfjoin_bytes_per_pair", "B", 0)
	l.r.setLayer("treejoind.status_429", "count", 0)
	l.r.setLayer("treejoind.status_504", "count", 0)
	l.r.notes = append(l.r.notes, "treejoind.*: in-process workload, no HTTP layer; reported as 0")
}

// finishTrace derives the instrument-quality metrics and writes the spans
// out next to the run's scratch directory.
func (l *layerRun) finishTrace() {
	r := l.r
	var num, den float64
	for _, k := range r.opOrder {
		o := r.ops[k]
		if len(o.tracedMs) == 0 || len(o.untracedMs) == 0 {
			continue
		}
		n := float64(len(o.ms))
		num += n * median(o.untracedMs)
		den += n * median(o.tracedMs)
	}
	over := 0.0
	if den > 0 {
		over = num/den - 1
	}
	r.setLayer("trace.overhead_frac", "frac", over)
	spans := r.tr.snapshot()
	r.setLayer("trace.unattributed_frac", "frac", unattributedFrac(spans))
	path := filepath.Join(filepath.Dir(r.workdir), fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
	if b, err := json.Marshal(map[string]any{"spans": spans, "self_ms_by_name": selfByName(spans)}); err == nil {
		if err := os.WriteFile(path, b, 0o644); err == nil {
			r.params["trace_file"] = path
		}
	}
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if fi, err := d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return nil
	})
	return n
}

func textBytes(lines []string) int64 {
	var n int64
	for _, s := range lines {
		n += int64(len(s)) + 1
	}
	return n
}
