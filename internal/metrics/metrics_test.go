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

func TestMovingAverage(t *testing.T) {
	xs := []float64{0, 10, 20, 30, 40}
	out := MovingAverage(xs, 3)
	if len(out) != 5 {
		t.Fatal("length changed")
	}
	if !almostEqual(out[2], 20) { // (10+20+30)/3
		t.Errorf("center = %f", out[2])
	}
	if !almostEqual(out[0], 5) { // (0+10)/2 at the edge
		t.Errorf("edge = %f", out[0])
	}
	// Width < 2: identity copy.
	id := MovingAverage(xs, 1)
	for i := range xs {
		if id[i] != xs[i] {
			t.Error("identity broken")
		}
	}
}

func TestThroughput(t *testing.T) {
	tp := Throughput{Included: 100, Succeeded: 20, Seconds: 50}
	if !almostEqual(tp.Efficiency(), 0.2) {
		t.Error("efficiency")
	}
	if !almostEqual(tp.State(), 0.4) {
		t.Error("state")
	}
	// η·T_raw == T_state (the paper's Equation 1).
	if raw := float64(tp.Included) / tp.Seconds; !almostEqual(tp.Efficiency()*raw, tp.State()) {
		t.Error("equation 1 violated")
	}
	empty := Throughput{}
	if empty.Efficiency() != 1 || empty.State() != 0 {
		t.Error("empty throughput")
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

func TestQuickMovingAverageBounds(t *testing.T) {
	f := func(raw []float64, widthRaw uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		width := int(widthRaw%10) + 1
		out := MovingAverage(xs, width)
		if len(out) != len(xs) {
			return false
		}
		if len(xs) == 0 {
			return true
		}
		s := Summarize(xs)
		for _, v := range out {
			if v < s.Min-1e-9 || v > s.Max+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
