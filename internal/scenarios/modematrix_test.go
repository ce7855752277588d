package scenarios

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sereth/internal/sim"
)

// modes is one cell of the mode matrix: each of the three sim modes
// that claim to move nothing the paper measures, on or off.
type modes struct{ parallel, persist, rpc bool }

// set returns cfg with exactly the cell's modes on.
func (m modes) set(cfg sim.ScenarioConfig) sim.ScenarioConfig {
	cfg.ParallelExec, cfg.Persist, cfg.RPCClients = m.parallel, m.persist, m.rpc
	return cfg
}

func (m modes) String() string {
	var on []string
	if m.parallel {
		on = append(on, "parallel")
	}
	if m.persist {
		on = append(on, "persist")
	}
	if m.rpc {
		on = append(on, "rpc")
	}
	return strings.Join(on, "+")
}

// matrixCells are the cells of {sequential, parallel} × {memory,
// persist} × {in-process, rpc} other than the base (every mode off).
// -short keeps the three single-mode cells and the all-modes corner.
func matrixCells() []modes {
	var cells []modes
	for i := 1; i < 8; i++ {
		if testing.Short() && i&(i-1) != 0 && i != 7 {
			continue
		}
		cells = append(cells, modes{parallel: i&1 != 0, persist: i&2 != 0, rpc: i&4 != 0})
	}
	return cells
}

// matrixRows are the η table, then the overload, burst, chaos and crash
// families: every fault variant, honest bases included.
func matrixRows() []Eta {
	rows := EtaTable()
	for _, mk := range []func(int64) sim.ScenarioConfig{
		sim.Overload, sim.Burst,
		sim.Chaos, sim.ChaosChurn, sim.ChaosPartition, sim.ChaosLoss,
		sim.ChaosCensor, sim.ChaosForger, sim.ChaosFrontrun, sim.ChaosCombined,
		sim.Crash, sim.CrashSingle, sim.CrashMulti, sim.CrashSyncEveryBlock, sim.CrashPartitioned,
	} {
		rows = append(rows, Eta{Name: mk(EtaSeed).Name, Make: mk})
	}
	return rows
}

// TestModeMatrix runs every row at EtaSeed in the base cell once, then
// in every other cell of the matrix, and demands each cell's whole
// Result — every count, η, the message and block totals, every fault
// family's section — equal the base's. A run fails unless every peer
// with a store reopens from it at its head (sim.ScenarioConfig.Persist),
// so the persist cells, and the crash rows' crashing peers in every
// cell, also prove each store they wrote whole. The sim refuses a crash
// plan behind RPC clients; those cells skip, and no other error does.
func TestModeMatrix(t *testing.T) {
	cells := matrixCells()
	for _, row := range matrixRows() {
		t.Run(row.Name, func(t *testing.T) {
			t.Parallel()
			base, err := sim.Run(modes{}.set(row.Make(EtaSeed)))
			if err != nil {
				t.Fatal(err)
			}
			// The rpc cells of the overload row prove that a full pool's
			// refusal crosses the wire as the same drop, so there must be
			// refusals to cross it.
			if row.Name == "overload" && base.BuysDropped == 0 && base.Evicted == 0 {
				t.Fatal("the overload row exerted no backpressure")
			}
			for _, m := range cells {
				t.Run(m.String(), func(t *testing.T) {
					res, err := sim.Run(m.set(row.Make(EtaSeed)))
					if errors.Is(err, sim.ErrCrashWithRPC) {
						t.Skip(err)
					}
					if err != nil {
						t.Fatal(err)
					}
					res.Config = base.Config
					if !reflect.DeepEqual(res, base) {
						t.Errorf("the result diverges from the base cell's:%s", resultDiff(base, res))
					}
				})
			}
		})
	}
}

// resultDiff lists the fields in which two results differ.
func resultDiff(base, cell sim.Result) string {
	var out strings.Builder
	b, c := reflect.ValueOf(base), reflect.ValueOf(cell)
	for i := range b.NumField() {
		if bf, cf := b.Field(i).Interface(), c.Field(i).Interface(); !reflect.DeepEqual(bf, cf) {
			fmt.Fprintf(&out, "\n  %s: base %+v, cell %+v", b.Type().Field(i).Name, bf, cf)
		}
	}
	return out.String()
}
