package sereth

// Benchmark harness: loops over the registries in internal/scenarios,
// which cmd/serethbench runs too, so sub-benchmark names match the
// record names in BENCH_<date>.json and the numbers are directly
// comparable. Absolute wall times of the η scenarios are simulator
// costs, not blockchain latencies; the η metrics are the reproduction
// targets.

import (
	"fmt"
	"testing"

	"sereth/internal/p2p"
	"sereth/internal/scenarios"
	"sereth/internal/sim"
)

// BenchmarkEta runs every row of the shared η table (the nine Figure-2
// cells, the sequential-history check, the four ablations) and the
// 50-peer scale cells: a full simulated-network scenario per iteration
// at seed (i+1)*101, reporting the mean transaction efficiency (η, the
// Figure-2 y-axis) as a custom metric. At -benchtime 1x the values
// equal the serethbench records.
func BenchmarkEta(b *testing.B) {
	for _, e := range append(scenarios.EtaTable(), scenarios.ScaleTable()...) {
		b.Run(e.Name, func(b *testing.B) {
			var etaSum float64
			for i := 0; i < b.N; i++ {
				res, err := sim.Run(e.Make(int64(i+1) * 101))
				if err != nil {
					b.Fatal(err)
				}
				etaSum += res.Efficiency()
			}
			b.ReportMetric(etaSum/float64(b.N), "eta")
		})
	}
}

// BenchmarkRow runs every micro-benchmark row of the BENCH table; the
// bodies and their commentary live in internal/scenarios/bench.go.
func BenchmarkRow(b *testing.B) {
	for _, row := range scenarios.Benches() {
		b.Run(row.Name, row.Run)
	}
}

// BenchmarkParallelReplayW1 is the parallel processor at ONE worker on
// the conflict-sparse bodies — its fixed overhead over the sequential
// exec/sequential-* rows, which the BENCH table does not carry.
func BenchmarkParallelReplayW1(b *testing.B) {
	for _, n := range []int{100, 1000} {
		b.Run(fmt.Sprintf("%dtx", n), scenarios.BenchParallelReplay(n, 1))
	}
}

// BenchmarkBroadcastDRegular50 is the mesh50 row's broadcast relayed
// across a sparse random-regular graph (multi-hop + duplicate
// suppression).
func BenchmarkBroadcastDRegular50(b *testing.B) {
	net := p2p.NewNetwork(p2p.Config{LatencyMs: 1, Topology: p2p.RandomRegular(6, 1)})
	for id := 1; id <= 50; id++ {
		net.Join(p2p.PeerID(id), scenarios.NopPeer{})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx := (&Transaction{Nonce: uint64(i), GasLimit: 1, Data: []byte{byte(i), byte(i >> 8), byte(i >> 16)}}).Memoize()
		net.BroadcastTx(1, tx)
		net.Drain()
	}
	b.StopTimer()
	sent, _ := net.Stats()
	b.ReportMetric(float64(sent)/b.Elapsed().Seconds(), "msgs/s")
}
