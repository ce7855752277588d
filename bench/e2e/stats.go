package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the middle value (mean of the middle two for an even
// count). It returns NaN for an empty slice so a missing sample can
// never read as a measurement.
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: below that the "percentile" is one or two outliers.
const minBeyond = 10

// percentile is the nearest-rank percentile p (0 < p < 1) of v. ok is
// false when fewer than minBeyond samples lie beyond the rank.
func percentile(v []float64, p float64) (value float64, ok bool) {
	n := len(v)
	rank := int(math.Ceil(p*float64(n))) - 1
	if n == 0 || rank < 0 || n-1-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[rank], true
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// timedPhase runs fn — the measured part of one repeat — between a
// forced GC and a second one, and records the whole-phase metrics. fn returns the number of committed
// transactions. keep is whatever must stay reachable for live_heap_mb to
// mean "with the system still up" (the cluster). Spans are kept only
// while fn runs.
func timedPhase(res *result, keep any, tr *tracer, fn func() int) {
	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	tr.record(true)
	t0 := time.Now()
	n := float64(fn())
	wall := time.Since(t0)
	tr.record(false)
	cpu := cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(keep)
	res.set("tx_per_s", n/wall.Seconds())
	res.set("cpu_us_per_tx", us(cpu)/n)
	res.set("allocs_per_tx", float64(m1.Mallocs-m0.Mallocs)/n)
	if keep != nil {
		res.set("live_heap_mb", float64(m2.HeapAlloc)/1e6)
	}
	res.wall, res.txs = wall, int(n)
}
