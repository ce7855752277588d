package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || !almostEqual(s.Mean, 3) || !almostEqual(s.Min, 1) || !almostEqual(s.Max, 5) {
		t.Errorf("summary: %+v", s)
	}
	// Sample stddev of 1..5 is sqrt(2.5).
	if !almostEqual(s.StdDev, math.Sqrt(2.5)) {
		t.Errorf("stddev = %f", s.StdDev)
	}
	if s.CI90 <= 0 {
		t.Error("CI90 not positive")
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize(nil); s.N != 0 || s.Mean != 0 {
		t.Error("empty summary nonzero")
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.StdDev != 0 || s.CI90 != 0 {
		t.Errorf("singleton: %+v", s)
	}
}

// TestMedian: the median is the 0.5 percentile, which is how every
// caller asks for it.
func TestMedian(t *testing.T) {
	if Percentile(nil, 0.5) != 0 {
		t.Error("empty median")
	}
	if Percentile([]float64{3, 1, 2}, 0.5) != 2 {
		t.Error("odd median")
	}
	if Percentile([]float64{4, 1, 2, 3}, 0.5) != 2.5 {
		t.Error("even median")
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	Percentile(in, 0.5)
	if in[0] != 3 {
		t.Error("Percentile mutated input")
	}
}

func TestQuickSummarizeBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		s := Summarize(xs)
		if len(xs) == 0 {
			return s.N == 0
		}
		return s.Min <= s.Mean+1e-9 && s.Mean <= s.Max+1e-9 && s.StdDev >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
