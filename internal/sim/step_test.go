package sim_test

import (
	"reflect"
	"testing"

	"sereth/internal/scenarios"
	"sereth/internal/sim"
)

// TestSteppingChangesNothing steps every golden η scenario in 700 ms
// strides of model time — a stride that falls between, onto and across
// submissions, blocks and gossip deliveries — through its submission
// window and a few block intervals past it, then finishes it: the Result
// must be Run's, field for field.
func TestSteppingChangesNothing(t *testing.T) {
	for _, e := range scenarios.EtaTable() {
		t.Run(e.Name, func(t *testing.T) {
			cfg := e.Make(scenarios.EtaSeed)
			want, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := sim.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			end := uint64(cfg.Buys)*cfg.SubmitIntervalMs + 4*cfg.BlockIntervalMs
			for to := uint64(0); to < end; to += 700 {
				if err := p.Step(to); err != nil {
					t.Fatalf("step to %d ms: %v", to, err)
				}
			}
			got, err := p.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("stepped:\n%+v\nrun:\n%+v", got, want)
			}
		})
	}
}
