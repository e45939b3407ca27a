// Command perfbench is the treejoin benchmark: one command that runs a
// named workload for a fixed time, checks the output of every operation,
// and prints the end-to-end metrics (untraced run) or the per-layer metrics
// (traced run). Run it through run.sh, which builds it and the treejoind
// server from source:
//
//	bash perfbench/run.sh --workload join-batch --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":u},...}}
//
// The line before it is a report with provenance, workload parameters and a
// per-operation table (samples, failures, p50, p90 and the highest
// percentile the sample count supports). See README.md for the workloads
// and for which layer metric should move which end-to-end metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Every workload runs on synth.Synthetic(corpusSize, seed) at threshold tau.
const (
	corpusSize = 2000
	tau        = 2
	setupReps  = 3 // set-ups per run; setup_s is their median
	// serverShards is treejoind's default -shards; the sharding replays
	// use it too.
	serverShards = 4
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one benchmark pass: its flags, the tracer (nil when
// untraced), and what it has measured so far.
type run struct {
	workload  string
	seed      int64
	seconds   float64
	traced    bool
	treejoind string
	workdir   string
	root      string

	tr *tracer

	setupS    []float64
	loadMs    []float64 // bracket parse + NewCorpus, one per set-up
	ops       map[string]*opLog
	seq       []logEntry // operations of the timed part, in completion order
	opOrder   []string
	wall      time.Duration // timed part
	peakRSSMB float64
	p50Ops    []string // operations whose p50 enters op_ms_p50_gmean
	p90Ops    []string // operations whose p90 enters op_ms_p90_gmean
	params    map[string]any
	layer     map[string]metric // per-layer metrics (traced run)
	notes     []string
	failures  []string
}

// opLog collects one operation type's latencies and failures.
type opLog struct {
	ms        []float64
	attempted int
	failed    int
	// Traced runs time every other operation without spans, to estimate
	// the tracing overhead from the two medians.
	tracedMs, untracedMs []float64
}

func (r *run) log(kind string) *opLog {
	if r.ops == nil {
		r.ops = make(map[string]*opLog)
	}
	l := r.ops[kind]
	if l == nil {
		l = &opLog{}
		r.ops[kind] = l
		r.opOrder = append(r.opOrder, kind)
	}
	return l
}

// record books one operation: its latency when it succeeded, a failure
// (with the reason kept for the report) when it did not.
func (r *run) record(kind string, ms float64, traced bool, err error) {
	l := r.log(kind)
	l.attempted++
	if err != nil {
		l.failed++
		if len(r.failures) < 20 {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", kind, err))
		}
		return
	}
	l.ms = append(l.ms, ms)
	if r.traced {
		if traced {
			l.tracedMs = append(l.tracedMs, ms)
		} else {
			l.untracedMs = append(l.untracedMs, ms)
		}
	}
}

func (r *run) setLayer(name, unit string, v float64) {
	if r.layer == nil {
		r.layer = make(map[string]metric)
	}
	r.layer[name] = metric{Value: v, Unit: unit}
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload: join-batch, query-static or serve-mixed")
		seed      = flag.Int64("seed", 1, "workload seed: generates the corpus, the queries and the operation order")
		seconds   = flag.Float64("seconds", 25, "length of the timed part")
		trace     = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
		treejoind = flag.String("treejoind", "", "treejoind binary (serve-mixed)")
		workdir   = flag.String("workdir", ".bench_build/run", "scratch directory for datasets and stores")
		root      = flag.String("root", ".", "treejoin source tree, for provenance")
	)
	flag.Parse()
	r := &run{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		treejoind: *treejoind, workdir: *workdir, root: *root}
	if r.traced {
		r.tr = newTracer()
	}
	if err := r.main(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func (r *run) main() error {
	if r.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(r.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(r.workdir, r.workload+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	r.workdir = dir
	switch r.workload {
	case "join-batch", "query-static":
		err = r.inProcess()
	case "serve-mixed":
		err = r.serveMixed()
	default:
		return fmt.Errorf("unknown workload %q (want join-batch, query-static or serve-mixed)", r.workload)
	}
	if err != nil {
		return err
	}
	return r.emit(os.Stdout)
}

// emit prints the report line and the result line.
func (r *run) emit(w io.Writer) error {
	attempted, failed := 0, 0
	table := make(map[string]opSummary, len(r.ops))
	for _, k := range r.opOrder {
		l := r.ops[k]
		attempted += l.attempted
		failed += l.failed
		table[k] = summarizeOp(l.ms, l.attempted, l.failed)
	}
	if attempted == 0 {
		return fmt.Errorf("no operation attempted")
	}
	completed := attempted - failed
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if r.traced {
		res.Metrics = r.layer
	} else {
		var p50s, p90s []float64
		for _, k := range r.p50Ops {
			if s := table[k]; s.Samples > 0 {
				p50s = append(p50s, s.P50ms)
			}
		}
		for _, k := range r.p90Ops {
			s := table[k]
			if !s.P90OK {
				r.notes = append(r.notes, fmt.Sprintf("%s has %d samples, fewer than the 100 a p90 needs", k, s.Samples))
			}
			if s.Samples > 0 {
				p90s = append(p90s, s.P90ms)
			}
		}
		res.Metrics["setup_s"] = metric{median(r.setupS), "s"}
		res.Metrics["ops_per_s"] = metric{float64(completed) / r.wall.Seconds(), "1/s"}
		res.Metrics["op_ms_p50_gmean"] = metric{geomean(p50s), "ms"}
		res.Metrics["op_ms_p90_gmean"] = metric{geomean(p90s), "ms"}
		res.Metrics["peak_rss_mb"] = metric{r.peakRSSMB, "MB"}
	}
	if !res.Correct {
		r.notes = append(r.notes, r.failures...)
	}

	report := map[string]any{
		"workload":       r.workload,
		"seed":           r.seed,
		"seconds":        r.seconds,
		"trace":          r.traced,
		"timed_s":        r.wall.Seconds(),
		"error_rate":     float64(failed) / float64(attempted),
		"ops":            table,
		"op_metrics":     opMetrics(table, r.opOrder),
		"setup_s":        r.setupS,
		"params":         r.params,
		"p50_gmean_over": r.p50Ops,
		"p90_gmean_over": r.p90Ops,
		"env":            provenance(r.root),
		"notes":          r.notes,
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"report": report}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// opMetrics names each operation's timings as the per-operation metrics
// (<op>_ms_p50, <op>_ms_p90 where the sample count allows), with their
// sample counts.
func opMetrics(table map[string]opSummary, order []string) map[string]any {
	out := make(map[string]any)
	for _, k := range order {
		s := table[k]
		if s.Samples == 0 {
			continue
		}
		out[k+"_ms_p50"] = map[string]any{"value": s.P50ms, "unit": "ms", "samples": s.Samples}
		if s.P90OK {
			out[k+"_ms_p90"] = map[string]any{"value": s.P90ms, "unit": "ms", "samples": s.Samples}
		}
	}
	return out
}

// provenance describes the machine and the code a run measured.
func provenance(root string) map[string]any {
	return map[string]any{
		"go":            runtime.Version(),
		"cpu":           cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"commit":        gitCommit(root),
		"source_sha256": sourceHash(root),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"started":       time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit reads HEAD without running git; a checkout that is not a git
// repository reports "unknown" and is identified by source_sha256.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name)))
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	return ref
}

// sourceHash digests every .go file and go.mod under root (skipping build
// output and VCS metadata), so a result names the code it measured.
func sourceHash(root string) string {
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB; pid 0 means
// this process.
func peakRSSMB(pid int) float64 {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(v), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS restarts this process's VmHWM at its current RSS, so the
// peak read after the timed part covers the timed part alone. It reports
// whether the kernel accepted the reset.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}
