// Package metrics provides the small statistics toolkit the evaluation
// harness uses: sample summaries with 90% confidence intervals (Figure 2
// plots smoothed means with 90% CI bands) and throughput accounting for
// the paper's state-throughput metric.
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

// MovingAverage smooths a series with a centered window of the given
// width (the "smoothed averages" of Figure 2). Width < 2 returns a copy.
func MovingAverage(xs []float64, width int) []float64 {
	out := make([]float64, len(xs))
	if width < 2 {
		copy(out, xs)
		return out
	}
	half := width / 2
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		var sum float64
		for j := lo; j <= hi; j++ {
			sum += xs[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}

// Throughput is the paper's §III-A accounting: raw throughput counts all
// included transactions, state throughput only those that changed state.
type Throughput struct {
	Included  int
	Succeeded int
	// Seconds of model time covered.
	Seconds float64
}

// Efficiency returns η = succeeded / included (1.0 for an empty sample,
// matching the paper's sequential-history baseline).
func (t Throughput) Efficiency() float64 {
	if t.Included == 0 {
		return 1
	}
	return float64(t.Succeeded) / float64(t.Included)
}

// State returns state throughput T_state = η · T_raw.
func (t Throughput) State() float64 {
	if t.Seconds <= 0 {
		return 0
	}
	return float64(t.Succeeded) / t.Seconds
}

// String renders the summary compactly.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4f ±%.4f (sd=%.4f, min=%.4f, max=%.4f)",
		s.N, s.Mean, s.CI90, s.StdDev, s.Min, s.Max)
}
