// Package metrics provides the small statistics toolkit the evaluation
// harness uses: sample summaries with 90% confidence intervals (Figure 2
// plots means with 90% CI bands) and percentiles. The paper's η and
// state-throughput accounting is sim.Result's.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample of observations.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	// CI90 is the half-width of the 90% confidence interval of the mean.
	CI90 float64
}

// z90 is the two-sided 90% normal quantile; sample counts in the harness
// (>=10 runs) make the normal approximation adequate.
const z90 = 1.6449

// Summarize computes a Summary of xs. An empty sample yields a zero
// Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(len(xs)-1))
		s.CI90 = z90 * s.StdDev / math.Sqrt(float64(len(xs)))
	}
	return s
}

// Percentile returns the p-quantile (p in [0,1]) of xs by linear
// interpolation between closest ranks (0 for empty input — callers
// report percentiles only when samples exist).
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64{}, xs...)
	sort.Float64s(cp)
	if p <= 0 {
		return cp[0]
	}
	if p >= 1 {
		return cp[len(cp)-1]
	}
	rank := p * float64(len(cp)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(cp) {
		return cp[lo]
	}
	return cp[lo]*(1-frac) + cp[lo+1]*frac
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f ±%.4f (sd=%.4f, min=%.4f, max=%.4f)",
		s.N, s.Mean, s.CI90, s.StdDev, s.Min, s.Max)
}
