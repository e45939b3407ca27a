package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"treejoin"
)

const (
	serveClients  = 2   // closed-loop clients; matches the 2-core box the baseline ran on
	poolPerClient = 600 // spare trees each client may add, never re-added
	// serveBlock is one shuffled block of a client's operations:
	// 40% search, 25% knn, 10% selfjoin, 5% topk, 15% add, 5% remove.
	sbSearch, sbKNN, sbSelfJoin, sbTopK, sbAdd, sbRemove = 8, 5, 2, 1, 3, 1
)

// daemon is a running treejoind child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// startDaemon launches treejoind with its default flags plus a loopback
// address on a free port, the store directory and optionally an input
// file, and waits until /healthz answers 200.
func (r *run) startDaemon(store, input string) (*daemon, error) {
	args := []string{"-addr", "127.0.0.1:0", "-store", store}
	if input != "" {
		args = append(args, "-input", input)
	}
	cmd := exec.Command(r.treejoind, args...)
	// The server must not outlive the benchmark, even one killed by its
	// caller.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting treejoind: %w", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.LastIndex(line, " at "); !sent && strings.Contains(line, "serving") && i >= 0 {
				addrCh <- strings.TrimSpace(line[i+4:])
				sent = true
			}
		}
		if !sent {
			close(addrCh)
		}
		d.done <- cmd.Wait()
	}()
	select {
	case a, ok := <-addrCh:
		if !ok {
			return nil, fmt.Errorf("treejoind exited before serving: %v", <-d.done)
		}
		d.addr = "http://" + a
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("treejoind did not start within 60s")
	}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := httpClient.Get(d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("treejoind /healthz not ready: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop sends SIGTERM and waits for the process to exit, killing it after
// 20 seconds.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		return err
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.done
		return fmt.Errorf("treejoind ignored SIGTERM; killed")
	}
}

var httpClient = &http.Client{
	Timeout:   60 * time.Second,
	Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients, DisableCompression: true},
}

// statusError is a non-2xx answer.
type statusError struct{ code int }

func (e statusError) Error() string { return fmt.Sprintf("HTTP %d", e.code) }

// call sends one request and returns the whole response body.
func (d *daemon) call(method, path string, body any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, d.addr+path, rd)
	if err != nil {
		return nil, err
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return out, statusError{resp.StatusCode}
	}
	return out, nil
}

type wireMatch struct {
	ID   int `json:"id"`
	Dist int `json:"dist"`
}

type wirePair struct {
	I    int `json:"i"`
	J    int `json:"j"`
	Dist int `json:"dist"`
}

type serverStats struct {
	Trees int                  `json:"trees"`
	Cache treejoin.CacheStats  `json:"cache"`
	Store *treejoin.StoreStats `json:"store"`
}

func (d *daemon) stats() (serverStats, error) {
	var st serverStats
	b, err := d.call("GET", "/stats", nil)
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	return st, err
}

// ledger tracks which spare trees the server may hold at any moment. Every
// request is stamped with a logical clock when sent and when its reply has
// been read; a tree is surely live over [start, end] when its add was
// acknowledged before start and its removal not sent before end, and
// possibly live when its add was sent before end and its removal not
// acknowledged before start.
type ledger struct {
	clock atomic.Int64
	n     int // base trees: keys 0..n-1, ids equal keys, never removed

	mu                               sync.Mutex
	addSent, addAck, remSent, remAck map[int]int64 // by key
	keyOfID                          map[int]int
}

func newLedger(n int) *ledger {
	return &ledger{n: n, addSent: map[int]int64{}, addAck: map[int]int64{}, remSent: map[int]int64{},
		remAck: map[int]int64{}, keyOfID: map[int]int{}}
}

func (g *ledger) tick() int64 { return g.clock.Add(1) }

func (g *ledger) stamp(m map[int]int64, key int, at int64) {
	g.mu.Lock()
	m[key] = at
	g.mu.Unlock()
}

func (g *ledger) bindID(id, key int) {
	g.mu.Lock()
	g.keyOfID[id] = key
	g.mu.Unlock()
}

// key maps a server id to a tree key; ok is false for an id the benchmark
// never saw assigned.
func (g *ledger) key(id int) (int, bool) {
	if id >= 0 && id < g.n {
		return id, true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	k, ok := g.keyOfID[id]
	return k, ok
}

func (g *ledger) sure(start, end int64) func(int) bool {
	return func(k int) bool {
		if k < g.n {
			return true
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		a, rs := g.addAck[k], g.remSent[k]
		return a != 0 && a < start && (rs == 0 || rs > end)
	}
}

func (g *ledger) maybe(start, end int64) func(int) bool {
	return func(k int) bool {
		if k < g.n {
			return true
		}
		g.mu.Lock()
		defer g.mu.Unlock()
		a, ra := g.addSent[k], g.remAck[k]
		return a != 0 && a < end && (ra == 0 || ra > start)
	}
}

// pending is one served operation whose output is checked after the timed
// part, when every id the server assigned is known.
type pending struct {
	kind   string
	ms     float64
	traced bool
	err    error
	check  func() error
}

// serveState is what the serve-mixed clients share.
type serveState struct {
	r               *run
	d               *daemon
	text            []string
	trees           []*treejoin.Tree // every tree by key, one label table
	refSet          pairSet
	parts           [][]int
	baseTop, allTop []treejoin.Pair
	g               *ledger

	mu      sync.Mutex
	done    []pending
	seq     []logEntry
	counts  map[string]int
	status  map[int]int
	sjBytes int64
	sjPairs int64
}

func (s *serveState) treeOf(k int) *treejoin.Tree {
	if k < 0 || k >= len(s.trees) {
		return nil
	}
	return s.trees[k]
}

// do runs one served operation: stamps, times, and queues its check.
func (s *serveState) do(kind, seqKind string, key int, traced bool, call func() ([]byte, error), check func(body []byte, start, end int64) error) {
	r := s.r
	var tr *tracer
	if traced {
		tr = r.tr
	}
	req := reqIDs.Add(1)
	root := tr.begin("op."+kind, -1, req)
	start := s.g.tick()
	child := tr.begin("treejoind.http."+seqKind, root, req)
	t0 := time.Now()
	body, err := call()
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	tr.end(child)
	end := s.g.tick()
	tr.end(root)
	p := pending{kind: kind, ms: ms, traced: traced, err: err}
	if err == nil {
		p.check = func() error { return check(body, start, end) }
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	var se statusError
	if errors.As(err, &se) {
		s.status[se.code]++
	}
	s.done = append(s.done, p)
	s.seq = append(s.seq, logEntry{seqKind, key})
	if err == nil {
		s.counts[kind]++
	}
}

func (s *serveState) search(q int, traced bool) {
	s.do("search", "search", q, traced, func() ([]byte, error) {
		return s.d.call("POST", "/search", map[string]any{"query": s.text[q], "tau": tau})
	}, func(body []byte, start, end int64) error {
		ms, err := s.matches(body)
		if err != nil {
			return err
		}
		if err := checkMatches(s.trees[q], q, ms, s.treeOf); err != nil {
			return err
		}
		return checkSearchSet(ms, q, s.refSet, s.parts[q], s.g.sure(start, end), s.g.maybe(start, end))
	})
}

func (s *serveState) knn(q int, traced bool) {
	s.do("knn", "knn", q, traced, func() ([]byte, error) {
		return s.d.call("POST", "/knn", map[string]any{"query": s.text[q], "k": knnK})
	}, func(body []byte, _, _ int64) error {
		ms, err := s.matches(body)
		if err != nil {
			return err
		}
		if len(ms) != knnK {
			return fmt.Errorf("%d neighbours, want %d", len(ms), knnK)
		}
		return checkMatches(s.trees[q], q, ms, s.treeOf)
	})
}

func (s *serveState) matches(body []byte) ([]treejoin.Match, error) {
	var resp struct{ Matches []wireMatch }
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, err
	}
	ms := make([]treejoin.Match, len(resp.Matches))
	for i, m := range resp.Matches {
		k, ok := s.g.key(m.ID)
		if !ok {
			return nil, fmt.Errorf("unknown id %d", m.ID)
		}
		ms[i] = treejoin.Match{Pos: k, Dist: m.Dist}
	}
	return ms, nil
}

func (s *serveState) selfjoin(traced bool) {
	s.do("selfjoin", "selfjoin", -1, traced, func() ([]byte, error) {
		return s.d.call("GET", fmt.Sprintf("/selfjoin?tau=%d", tau), nil)
	}, func(body []byte, start, end int64) error {
		var ps []treejoin.Pair
		summary := false
		for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
			var m map[string]json.RawMessage
			if err := json.Unmarshal(line, &m); err != nil {
				return err
			}
			if e, ok := m["error"]; ok {
				return fmt.Errorf("stream error %s", e)
			}
			if _, ok := m["summary"]; ok {
				summary = true
				continue
			}
			var p wirePair
			if err := json.Unmarshal(line, &p); err != nil {
				return err
			}
			ki, ok1 := s.g.key(p.I)
			kj, ok2 := s.g.key(p.J)
			if !ok1 || !ok2 {
				return fmt.Errorf("pair with unknown id (%d, %d)", p.I, p.J)
			}
			ps = append(ps, treejoin.Pair{I: ki, J: kj, Dist: p.Dist})
		}
		if !summary {
			return fmt.Errorf("selfjoin stream ended without a summary")
		}
		s.mu.Lock()
		s.sjBytes += int64(len(body))
		s.sjPairs += int64(len(ps))
		s.mu.Unlock()
		return checkPairsBetween(ps, s.refSet, s.g.sure(start, end), s.g.maybe(start, end))
	})
}

func (s *serveState) topk(traced bool) {
	s.do("topk", "topk", -1, traced, func() ([]byte, error) {
		return s.d.call("POST", "/topk", map[string]any{"k": topK})
	}, func(body []byte, _, _ int64) error {
		var resp struct{ Pairs []wirePair }
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.Pairs) != topK {
			return fmt.Errorf("%d pairs, want %d", len(resp.Pairs), topK)
		}
		for i, p := range resp.Pairs {
			ki, ok1 := s.g.key(p.I)
			kj, ok2 := s.g.key(p.J)
			if !ok1 || !ok2 {
				return fmt.Errorf("pair with unknown id (%d, %d)", p.I, p.J)
			}
			if d, ok := treejoin.DistanceWithin(s.trees[ki], s.trees[kj], p.Dist); !ok || d != p.Dist {
				return fmt.Errorf("pair (%d, %d) reported at %d, re-verified %d", p.I, p.J, p.Dist, d)
			}
			// The membership always holds the base trees and at most
			// every spare tree, so the k-th distance lies between the two
			// references' k-th distances.
			if p.Dist > s.baseTop[i].Dist || p.Dist < s.allTop[i].Dist {
				return fmt.Errorf("pair %d at distance %d outside [%d, %d]", i, p.Dist, s.allTop[i].Dist, s.baseTop[i].Dist)
			}
		}
		return nil
	})
}

// add adds spare tree key and returns the id the server assigned it, or -1
// when the add failed.
func (s *serveState) add(key int, traced bool) int {
	id := -1
	s.g.stamp(s.g.addSent, key, s.g.clock.Load()+1)
	s.do("write", "add", key, traced, func() ([]byte, error) {
		b, err := s.d.call("POST", "/add", map[string]any{"trees": []string{s.text[key]}})
		if err == nil {
			var resp struct{ IDs []int }
			if json.Unmarshal(b, &resp) == nil && len(resp.IDs) == 1 {
				id = resp.IDs[0]
				s.g.bindID(id, key)
			}
		}
		return b, err
	}, func(body []byte, _, _ int64) error {
		var resp struct{ IDs []int }
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if len(resp.IDs) != 1 {
			return fmt.Errorf("add returned %d ids, want 1", len(resp.IDs))
		}
		return nil
	})
	s.g.stamp(s.g.addAck, key, s.g.clock.Load())
	return id
}

func (s *serveState) remove(key, id int, traced bool) {
	s.g.stamp(s.g.remSent, key, s.g.clock.Load()+1)
	s.do("write", "remove", key, traced, func() ([]byte, error) {
		return s.d.call("POST", "/remove", map[string]any{"ids": []int{id}})
	}, func(body []byte, _, _ int64) error {
		var resp struct{ Removed int }
		if err := json.Unmarshal(body, &resp); err != nil {
			return err
		}
		if resp.Removed != 1 {
			return fmt.Errorf("remove of id %d removed %d", id, resp.Removed)
		}
		return nil
	})
	s.g.stamp(s.g.remAck, key, s.g.clock.Load())
}

// serveMixed runs the served workload: ingest the store untimed, restart
// treejoind from it setupReps times (each a timed set-up), then drive it
// with serveClients closed-loop clients.
func (r *run) serveMixed() error {
	if r.treejoind == "" {
		return fmt.Errorf("serve-mixed needs -treejoind")
	}
	n := corpusSize
	poolN := serveClients*poolPerClient + 1 // the last spare tree is the set-up's write probe
	text := genText(r.seed, n+poolN)
	trees, err := parseAll(text, treejoin.NewLabelTable())
	if err != nil {
		return err
	}
	all, err := treejoin.NewCorpus(trees)
	if err != nil {
		return err
	}
	refAll, _, err := all.SelfJoin(context.Background(), tau, treejoin.WithMethod(treejoin.MethodBruteForce))
	if err != nil {
		return fmt.Errorf("reference join: %w", err)
	}
	baseRef, err := buildReference(trees[:n], r.seed, false)
	if err != nil {
		return err
	}
	s := &serveState{r: r, text: text, trees: trees, refSet: pairSetOf(refAll), g: newLedger(n),
		counts: map[string]int{}, status: map[int]int{}}
	s.parts = make([][]int, len(trees))
	for _, p := range refAll {
		s.parts[p.I] = append(s.parts[p.I], p.J)
		s.parts[p.J] = append(s.parts[p.J], p.I)
	}
	s.baseTop, s.allTop = topKOf(baseRef.pairs, topK), topKOf(refAll, topK)
	probe := len(trees) - 1 // never added by a client

	input := filepath.Join(r.workdir, "trees.txt")
	if err := os.WriteFile(input, []byte(strings.Join(text[:n], "\n")+"\n"), 0o644); err != nil {
		return err
	}
	store := filepath.Join(r.workdir, "store")
	d, err := r.startDaemon(store, input)
	if err != nil {
		return fmt.Errorf("ingest: %w", err)
	}
	st, err := d.stats()
	if err == nil && st.Trees != n {
		err = fmt.Errorf("ingested %d trees, want %d", st.Trees, n)
	}
	if serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping ingest server: %w", serr)
	}
	if err != nil {
		return err
	}

	for rep := 0; rep < setupReps; rep++ {
		t0 := time.Now()
		if d, err = r.startDaemon(store, ""); err != nil {
			return err
		}
		s.d = d
		s.search(0, false)
		s.knn(0, false)
		s.selfjoin(false)
		s.topk(false)
		id := s.add(probe, false)
		if id < 0 {
			d.stop()
			return fmt.Errorf("set-up add failed")
		}
		s.remove(probe, id, false)
		delete(s.g.keyOfID, id)
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		// The probe is added and removed again by the next set-up.
		for _, m := range []map[int]int64{s.g.addSent, s.g.addAck, s.g.remSent, s.g.remAck} {
			delete(m, probe)
		}
		if rep < setupReps-1 {
			if err := d.stop(); err != nil {
				return fmt.Errorf("stopping set-up server: %w", err)
			}
		}
	}
	warm := s.done
	s.done, s.seq, s.counts = nil, nil, map[string]int{}
	for _, p := range warm {
		if p.err == nil {
			p.err = p.check()
		}
		if p.err != nil {
			r.record(p.kind+"_warmup", p.ms, false, p.err)
		}
	}

	st0, err := d.stats()
	if err != nil {
		d.stop()
		return err
	}
	cpu0 := cpuSeconds()
	start := time.Now()
	var wg sync.WaitGroup
	// A search that follows a write rebuilds the per-tau index, so about
	// half the searches pay a rebuild and the search p50 falls between two
	// modes: over ten seeds it spread by 34%. The search and write p90s
	// queue behind concurrent self-joins and spread by 22% and 37%. These
	// are reported but not gated; all four still need a p90's samples.
	r.p50Ops = []string{"knn", "selfjoin", "topk", "write"}
	r.p90Ops = []string{"selfjoin", "knn"}
	enough := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, k := range []string{"search", "knn", "selfjoin", "write"} {
			if s.counts[k] < 10*minTail {
				return false
			}
		}
		return true
	}
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed*100 + int64(c)))
			nextPool := 0
			var mine [][2]int // live (key, id) this client added
			traceFlip := 0
			for {
				b := make([]string, 0, 20)
				for _, x := range []struct {
					k string
					n int
				}{{"search", sbSearch}, {"knn", sbKNN}, {"selfjoin", sbSelfJoin}, {"topk", sbTopK}, {"add", sbAdd}, {"remove", sbRemove}} {
					for i := 0; i < x.n; i++ {
						b = append(b, x.k)
					}
				}
				rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
				for _, k := range b {
					traced := r.traced && traceFlip%2 == 0
					traceFlip++
					if k == "remove" && len(mine) == 0 {
						k = "add"
					}
					switch k {
					case "search":
						s.search(rng.Intn(n), traced)
					case "knn":
						s.knn(rng.Intn(n), traced)
					case "selfjoin":
						s.selfjoin(traced)
					case "topk":
						s.topk(traced)
					case "add":
						if nextPool == poolPerClient {
							// Spare trees are never re-added, so the ledger
							// holds one lifetime per tree; a client that has
							// used all of its own ends its timed part.
							s.mu.Lock()
							r.notes = append(r.notes, fmt.Sprintf("client %d added all %d of its spare trees and stopped", c, poolPerClient))
							s.mu.Unlock()
							return
						}
						key := n + c + serveClients*nextPool
						nextPool++
						if id := s.add(key, traced); id >= 0 {
							mine = append(mine, [2]int{key, id})
						}
					case "remove":
						i := rng.Intn(len(mine))
						s.remove(mine[i][0], mine[i][1], traced)
						mine = append(mine[:i], mine[i+1:]...)
					}
				}
				el := time.Since(start).Seconds()
				if el >= r.seconds && enough() || el >= 2*r.seconds {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	r.wall = time.Since(start)
	cpuAll := cpuSeconds() - cpu0
	st1, err := d.stats()
	r.peakRSSMB = peakRSSMB(d.cmd.Process.Pid)
	if serr := d.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping server: %w", serr)
	}
	if err != nil {
		return err
	}
	for _, p := range s.done {
		if p.err == nil {
			p.err = p.check()
		}
		r.record(p.kind, p.ms, p.traced, p.err)
	}
	r.seq = s.seq

	r.params = map[string]any{
		"corpus":       fmt.Sprintf("synth.Synthetic(%d, seed); spare trees for adds: the next %d", n, poolN),
		"tau":          tau,
		"clients":      serveClients,
		"loop":         "closed",
		"server":       "treejoind default flags + -addr 127.0.0.1:0 -store <dir>",
		"block":        map[string]int{"search": sbSearch, "knn": sbKNN, "selfjoin": sbSelfJoin, "topk": sbTopK, "add": sbAdd, "remove": sbRemove},
		"knn_k":        knnK,
		"topk_k":       topK,
		"reference":    "MethodBruteForce self-join over base and spare trees, computed once per run",
		"status_codes": s.status,
	}
	if !r.traced {
		return nil
	}
	return r.serveLayers(s, st0, st1, cpuAll, store, baseRef)
}

// serveLayers measures the per-layer metrics of a traced serve-mixed run.
func (r *run) serveLayers(s *serveState, st0, st1 serverStats, cpuAll float64, store string, baseRef *reference) error {
	ctx := context.Background()
	n := corpusSize
	writes := 0
	for _, e := range r.seq {
		if e.kind == "add" || e.kind == "remove" {
			writes++
		}
	}
	r.setLayer("bench.client_cpu_frac", "frac", cpuAll/(r.wall.Seconds()*float64(runtime.NumCPU())))
	r.setLayer("treejoind.status_429", "count", float64(s.status[http.StatusTooManyRequests]))
	r.setLayer("treejoind.status_504", "count", float64(s.status[http.StatusGatewayTimeout]))
	r.setLayer("treejoind.selfjoin_bytes_per_pair", "B", float64(s.sjBytes)/float64(max(1, s.sjPairs)))

	base := s.trees[:n]
	cp, err := treejoin.NewCorpus(base)
	if err != nil {
		return err
	}
	lay := &layerRun{r: r, ts: base, cp: cp, ref: baseRef, text: s.text}
	if err := lay.common(ctx, -1); err != nil {
		return err
	}
	if err := lay.indexBuildsPerRead(r.seq, s.treeOf, replayOps); err != nil {
		return err
	}
	// The server's own cache and store over the timed part.
	r.setLayer("engine.cache_hit_frac", "frac", hitFrac(st0.Cache, st1.Cache))
	if st0.Store != nil && st1.Store != nil && writes > 0 {
		r.setLayer("segstore.flushes_per_1k_writes", "1/1k", float64(st1.Store.FlushRuns-st0.Store.FlushRuns)*1000/float64(writes))
		r.setLayer("segstore.compactions_per_1k_writes", "1/1k", float64(st1.Store.CompactionRuns-st0.Store.CompactionRuns)*1000/float64(writes))
	}
	live := append([]string(nil), s.text[:n]...)
	for k := n; k < len(s.trees); k++ {
		if s.g.addAck[k] != 0 && s.g.remAck[k] == 0 {
			live = append(live, s.text[k])
		}
	}
	r.setLayer("segstore.bytes_per_user_byte", "B/B", float64(dirBytes(store))/float64(textBytes(live)))

	root, req, done := lay.replay("served_store")
	defer done()
	open, err := lay.openSharded(store, root, req)
	if err != nil {
		return err
	}
	r.setLayer("segstore.open_ms", "ms", open)

	// In-process latency of the served operations on the same membership:
	// the ingested store, reopened, at the server's shard count.
	sc, err := treejoin.OpenSharded(store, serverShards)
	if err != nil {
		return fmt.Errorf("reopening served store: %w", err)
	}
	defer sc.Close()
	lt := sc.Labels()
	rng := rand.New(rand.NewSource(r.seed + 13))
	inproc := map[string][]float64{}
	for k := 0; k < 60; k++ {
		q, err := treejoin.ParseBracket(s.text[rng.Intn(n)], lt)
		if err != nil {
			return err
		}
		d := lay.timed("treejoin.ShardedCorpus.Search", root, req, func() { _, err = sc.Search(ctx, q, tau) })
		if err != nil {
			return err
		}
		inproc["search"] = append(inproc["search"], ms(d))
		d = lay.timed("treejoin.ShardedCorpus.KNN", root, req, func() { _, err = sc.KNN(ctx, q, knnK) })
		if err != nil {
			return err
		}
		inproc["knn"] = append(inproc["knn"], ms(d))
	}
	for k := 0; k < 6; k++ {
		d := lay.timed("treejoin.ShardedCorpus.SelfJoin", root, req, func() { _, _, err = sc.SelfJoin(ctx, tau) })
		if err != nil {
			return err
		}
		inproc["selfjoin"] = append(inproc["selfjoin"], ms(d))
	}
	for k := 0; k < 20; k++ {
		t, err := treejoin.ParseBracket(s.text[len(s.text)-1], lt)
		if err != nil {
			return err
		}
		var ids []int
		d := lay.timed("treejoin.ShardedCorpus.Add", root, req, func() { ids, err = sc.Add(t) })
		if err != nil {
			return err
		}
		inproc["write"] = append(inproc["write"], ms(d))
		d = lay.timed("treejoin.ShardedCorpus.Remove", root, req, func() { sc.Remove(ids...) })
		inproc["write"] = append(inproc["write"], ms(d))
	}
	for _, k := range []string{"search", "knn", "selfjoin", "write"} {
		client := 0.0
		if o := r.ops[k]; o != nil {
			client, _ = quantile(o.ms, 0.5)
		}
		r.setLayer("treejoind.overhead_ms."+k, "ms", client-median(inproc[k]))
	}
	keys := make([]string, 0, len(inproc))
	for k := range inproc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r.params["inprocess_replay_ops"] = keys
	lay.finishTrace()
	return nil
}
