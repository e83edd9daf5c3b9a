package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of per-operation measurements in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

// quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// between the closest ranks; NaN for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func (s samples) median() float64 { return s.quantile(0.5) }

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	total := 0.0
	for _, v := range s {
		total += v
	}
	return total / float64(len(s))
}

// tailQuantile is the highest of p99, p95 and p90 that leaves at least ten
// samples beyond it; 0 when even p90 does not (fewer than 100 samples).
func tailQuantile(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90} {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0
}

func medianOf(vals []float64) float64 { return samples(vals).median() }
