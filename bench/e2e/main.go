// Command e2e is the repository's benchmark: an end-to-end and per-layer
// measurement of the HMS write path — signed transaction in, admitted,
// gossiped, visible in the READ-UNCOMMITTED view, mined, imported by the
// peers, durable on disk — on a real three-peer in-process cluster, plus
// the paper's Figure-2 simulation grid. See ../README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

const (
	// defaultSeconds is BENCHMARK.json's run_seconds. The workload sizes
	// are fixed so that counts and bytes repeat exactly; --seconds buys
	// repeats, one per secondsPerRepeat, each of which runs for at least
	// that long on the 2-CPU container the sizes were chosen on.
	defaultSeconds   = 20
	secondsPerRepeat = 4
	// warmupFraction is the size of the discarded first repeat.
	warmupFraction = 0.25
	// spanCapacity preallocates the traced repeat's span slice.
	spanCapacity = 1 << 20
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	// prepare generates the inputs from env.seed, once.
	prepare(env *env)
	// repeat boots a fresh system, runs the given fraction of the inputs
	// through it, checks the outputs and reports what it measured. tr is
	// nil except on the traced repeat.
	repeat(env *env, fraction float64, tr *tracer) *result
}

func newWorkload(name string) workload {
	switch name {
	case "market-rpc":
		return &market{name: name, overRPC: true}
	case "deep-pool":
		return &market{name: name, deep: true}
	case "kv-blocks":
		return &kvBlocks{}
	case "sim-fig2":
		return &simFig2{}
	}
	return nil
}

// env is what a run hands its workload.
type env struct {
	seed     int64
	scale    float64 // 1 except in the smoke test
	dataDir  string  // scratch root for the peers' datadirs
	spansDir string  // where a traced repeat writes its spans; "" = nowhere
	dirs     int
}

// size scales a workload size, rounded down to a multiple, at least one.
func (e *env) size(base, multiple int) int {
	return max(multiple, int(float64(base)*e.scale)/multiple*multiple)
}

// repeatDir names a fresh datadir; the repeat removes it when done.
func (e *env) repeatDir() string {
	e.dirs++
	return filepath.Join(e.dataDir, fmt.Sprintf("r%d", e.dirs))
}

// runWorkload is the run protocol: inputs once, one discarded warm-up,
// then the timed repeats, each on a fresh system after a forced GC, and
// on a traced run one more repeat with spans and shadow probes on.
func runWorkload(name string, e *env, repeats int, traced bool) (*summary, error) {
	w := newWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	t0 := time.Now()
	w.prepare(e)
	inputs := time.Since(t0)
	// Everything a repeat does outside its timed phase — boot, prefill,
	// receipt walk, close, recovery — is set-up.
	repeat := func(fraction float64, tr *tracer) *result {
		t0 := time.Now()
		r := w.repeat(e, fraction, tr)
		r.set("setup_s", (time.Since(t0) - r.wall).Seconds())
		return r
	}
	warmup := repeat(warmupFraction, nil)
	timed := make([]*result, repeats)
	for i := range timed {
		timed[i] = repeat(1, nil)
	}
	var tracedRes *result
	if traced {
		tr := newTracer(spanCapacity)
		tracedRes = repeat(1, tr)
		tracedRes.attempted++
		if bad := tr.malformed(); bad != "" {
			tracedRes.fail("span tree: %s", bad)
		}
		if e.spansDir != "" {
			if err := tr.writeSpans(filepath.Join(e.spansDir, "spans-"+name+".json")); err != nil {
				return nil, err
			}
		}
	}
	return summarize(name, e.seed, inputs, warmup, timed, tracedRes), nil
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name      = flag.String("workload", "all", "one of "+fmt.Sprint(workloadNames)+", or all")
		seed      = flag.Int64("seed", 1, "seeds key names, prices, put keys and sim seeds")
		seconds   = flag.Int("seconds", defaultSeconds, "measured time: one timed repeat per 4 s, at least one")
		trace     = flag.Int("trace", 0, "1 = one timed repeat plus a traced repeat; prints the layer table")
		out       = flag.String("out", "", "also save the summaries as JSON, for -compare")
		describe  = flag.Bool("describe", false, "print BENCHMARK.json and exit")
		selfcheck = flag.Bool("selfcheck", false, "run everything twice and fail if the two sets disagree by more than half a bound")
		cmp       = flag.Bool("compare", false, "compare two saved outputs: -compare a.json b.json")
		spansDir  = flag.String("spans", "", "directory to write the traced repeat's spans-<workload>.json into")
	)
	flag.Parse()

	if *describe {
		doc, err := benchmarkJSON()
		if err != nil {
			return fail(err)
		}
		os.Stdout.Write(doc)
		return 0
	}
	if *cmp {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two files"))
		}
		a, err := loadSummaries(flag.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := loadSummaries(flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !compare(os.Stdout, a, b, 0.5) {
			return 1
		}
		return 0
	}

	// One driver goroutine plus the HTTP server's: two processors, the
	// size of the container the bounds were measured on.
	runtime.GOMAXPROCS(2)
	debug.SetGCPercent(100)
	repeats := max(1, *seconds/secondsPerRepeat)
	if *trace == 1 {
		repeats = 1 // the reference for trace.overhead_ratio; the traced repeat follows
	}
	// The peers' datadirs live under the working directory, which is the
	// checkout when the driver runs the benchmark.
	dataDir := filepath.Join(".bench_build", "data", fmt.Sprintf("e2e-%d", os.Getpid()))
	defer os.RemoveAll(dataDir)

	names := workloadNames
	if *name != "all" {
		names = []string{*name}
	}
	runAll := func() ([]*summary, error) {
		var sums []*summary
		for _, n := range names {
			s, err := runWorkload(n, &env{seed: *seed, scale: 1, dataDir: dataDir, spansDir: *spansDir}, repeats, *trace == 1 || *selfcheck)
			if err != nil {
				return nil, err
			}
			s.print(os.Stdout)
			sums = append(sums, s)
		}
		return sums, nil
	}
	sums, err := runAll()
	if err != nil {
		return fail(err)
	}
	code := 0
	if *selfcheck {
		second, err := runAll()
		if err != nil {
			return fail(err)
		}
		fmt.Println("\n== selfcheck: two sets of runs of the same code; allowed = half the bound ==")
		if !compare(os.Stdout, sums, second, 0.5) {
			code = 1
		}
	}
	if *out != "" {
		if err := saveSummaries(*out, sums); err != nil {
			return fail(err)
		}
	}
	for _, s := range sums {
		if s.Failed > 0 {
			code = 1
		}
	}
	if len(sums) == 1 {
		line, err := sums[0].driverLine(*trace == 1)
		if err != nil {
			return fail(err)
		}
		fmt.Println(line)
	}
	return code
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "e2e:", err)
	return 1
}
