package main

import (
	"math"
	"sort"
)

// minTail is the sample-count rule for percentiles: a percentile is
// reported only when at least minTail samples lie beyond it, so p90 needs
// 100 samples and p50 needs 20.
const minTail = 10

// quantile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, and whether at least minTail samples lie beyond it. xs is not
// modified. An empty input gives (0, false).
func quantile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	return s[rank], n-1-rank >= minTail
}

// median is the 0.5 quantile without the sample-count rule: it is what the
// benchmark reports for repeated set-up and replay measurements, which are
// taken a handful of times.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailQuantiles are the percentiles the report may name as a timing's tail,
// highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9, 0.75, 0.5}

// highestTail returns the highest of tailQuantiles that the sample-count
// rule allows for n samples, or 0 when even the median is not allowed.
func highestTail(n int) float64 {
	for _, q := range tailQuantiles {
		rank := int(math.Ceil(q*float64(n))) - 1
		if rank >= 0 && n-1-rank >= minTail {
			return q
		}
	}
	return 0
}

// geomean is the geometric mean of positive values; it weighs a relative
// change in any one of them equally.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// opSummary is the report entry for one operation type.
type opSummary struct {
	Samples  int     `json:"samples"`
	Failed   int     `json:"failed"`
	P50ms    float64 `json:"p50_ms"`
	P90ms    float64 `json:"p90_ms,omitempty"`
	P90OK    bool    `json:"p90_ok"`
	Tail     float64 `json:"tail_q,omitempty"`
	TailMs   float64 `json:"tail_ms,omitempty"`
	MeanMs   float64 `json:"mean_ms"`
	MinMs    float64 `json:"min_ms"`
	MaxMs    float64 `json:"max_ms"`
	Attempts int     `json:"attempted"`
}

func summarizeOp(ms []float64, attempted, failed int) opSummary {
	s := opSummary{Samples: len(ms), Failed: failed, Attempts: attempted}
	if len(ms) == 0 {
		return s
	}
	s.P50ms, _ = quantile(ms, 0.5)
	s.P90ms, s.P90OK = quantile(ms, 0.9)
	if q := highestTail(len(ms)); q > 0 {
		s.Tail = q
		s.TailMs, _ = quantile(ms, q)
	}
	s.MinMs, s.MaxMs = ms[0], ms[0]
	sum := 0.0
	for _, x := range ms {
		sum += x
		s.MinMs = math.Min(s.MinMs, x)
		s.MaxMs = math.Max(s.MaxMs, x)
	}
	s.MeanMs = sum / float64(len(ms))
	return s
}
