package main

import (
	"encoding/json"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// TestSmoke runs every workload at 1/100 size with two timed repeats and
// a traced one, and checks what comes out against the declared tables.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			e := &env{seed: 7, scale: 0.01, dataDir: t.TempDir()}
			s, err := runWorkload(name, e, 2, true)
			if err != nil {
				t.Fatal(err)
			}
			if s.Failed != 0 || s.Attempted == 0 {
				t.Fatalf("%d of %d operations failed: %v", s.Failed, s.Attempted, s.Notes)
			}
			checkValues(t, name, endToEnd, s.Values, s.Samples)
			checkValues(t, name, perLayer, s.Layers, nil)
			if len(s.traced.layers) == 0 {
				t.Error("traced repeat kept no spans")
			}
			line, err := s.driverLine(false)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil {
				t.Fatal(err)
			}
			e2e, _ := driverLists()
			if !out.Correct || out.Attempted < 1 || len(out.Metrics) != len(e2e) {
				t.Errorf("driver line %s", line)
			}
			for _, d := range e2e {
				if m := out.Metrics[d.Name]; m.Unit != d.Unit || m.Value == 0 {
					t.Errorf("driver metric %s = %+v", d.Name, m)
				}
			}
		})
	}
}

// checkValues requires every reported name to be declared for this
// workload, every declared one to be reported (a percentile only when it
// has the samples), and every value to be a real measurement.
func checkValues(t *testing.T, workload string, defs []metricDef, got map[string]float64, samples map[string]int) {
	t.Helper()
	declared := map[string]metricDef{}
	for _, d := range defs {
		if d.on(workload) {
			declared[d.Name] = d
		}
	}
	for name, v := range got {
		d, ok := declared[name]
		if !ok {
			t.Errorf("%s reports %s, which is not declared for it", workload, name)
			continue
		}
		if name == "hms.delta_us" {
			continue // a difference of two timings: may be ~0 or below at this size
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			t.Errorf("%s = %v", name, v)
		}
		if v == 0 && !d.Exact {
			t.Errorf("timing %s is zero", name)
		}
		if i := strings.LastIndex(name, "_p"); i > 0 && samples != nil {
			if p, err := strconv.Atoi(name[i+2:]); err == nil {
				n := samples[name[:i]]
				if beyond := n - int(math.Ceil(float64(p)/100*float64(n))); beyond < minBeyond {
					t.Errorf("%s reported with %d samples beyond it (n=%d)", name, beyond, n)
				}
			}
		}
	}
	for name := range declared {
		if _, ok := got[name]; ok {
			continue
		}
		if i := strings.LastIndex(name, "_p"); i > 0 && samples != nil {
			if _, err := strconv.Atoi(name[i+2:]); err == nil {
				continue // percentile without enough samples at this size
			}
		}
		t.Errorf("%s does not report %s", workload, name)
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	if got, ok := percentile(v, 0.90); !ok || got != 90 {
		t.Errorf("p90 of 1..100 = %v, %v", got, ok)
	}
	if _, ok := percentile(v, 0.95); ok {
		t.Error("p95 of 100 samples has only 5 beyond it and must not be reported")
	}
	if _, ok := percentile(v[:19], 0.50); ok {
		t.Error("p50 of 19 samples has only 9 beyond it and must not be reported")
	}
}

// TestBenchmarkJSON pins the committed BENCHMARK.json to the tables in
// report.go, so the declared workloads, metrics, units and bounds are the
// ones the program emits.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is stale; regenerate with: go -C bench run ./e2e -describe > BENCHMARK.json")
	}
	for name, why := range workloadWhy {
		if len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", name, len(why))
		}
	}
}

func TestCompareFlagsExactAndFarValues(t *testing.T) {
	a := &summary{Workload: "kv-blocks", Values: map[string]float64{"tx_per_s": 1000, "eta": 1}}
	near := &summary{Workload: "kv-blocks", Values: map[string]float64{"tx_per_s": 1020, "eta": 1}}
	far := &summary{Workload: "kv-blocks", Values: map[string]float64{"tx_per_s": 800, "eta": 1}}
	moved := &summary{Workload: "kv-blocks", Values: map[string]float64{"tx_per_s": 1000, "eta": 0.99}}
	var sink strings.Builder
	if !compare(&sink, []*summary{a}, []*summary{near}, 0.5) {
		t.Error("2 % apart was flagged")
	}
	if compare(&sink, []*summary{a}, []*summary{far}, 0.5) {
		t.Error("20 % apart passed")
	}
	if compare(&sink, []*summary{a}, []*summary{moved}, 0.5) {
		t.Error("a moved exact metric passed")
	}
}
