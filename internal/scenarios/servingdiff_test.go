package scenarios

import (
	"testing"

	"sereth/internal/sim"
)

// TestPersistGoldenScenarios runs EVERY golden η scenario twice at the
// benchmark seed — in-memory and store-backed — and demands identical
// results. Persistence is write-through by construction; this is the
// differential proof that flushing state and block records at every
// adoption perturbs nothing the paper measures.
func TestPersistGoldenScenarios(t *testing.T) {
	for _, e := range EtaTable() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			plainRes, err := sim.Run(e.Make(EtaSeed))
			if err != nil {
				t.Fatal(err)
			}
			cfg := e.Make(EtaSeed)
			cfg.Persist = true
			persistRes, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, e.Name, plainRes, persistRes)
		})
	}
}

// TestPersistChaosHonestTwin covers the chaos family: η under faults
// AND the honest twin must be unchanged by store-backed persistence.
func TestPersistChaosHonestTwin(t *testing.T) {
	compareChaosTwins(t, "persisted", chaosTwinRows(t, sim.Shape{}), chaosTwinRows(t, sim.Shape{Persist: true}))
}

// TestRPCClientsGoldenScenarios runs EVERY golden η scenario twice —
// in-process clients and clients behind the HTTP JSON-RPC serving tier
// — and demands identical results: the wire encoding round-trips the
// same view words and submits the same signed transactions.
func TestRPCClientsGoldenScenarios(t *testing.T) {
	for _, e := range EtaTable() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			localRes, err := sim.Run(e.Make(EtaSeed))
			if err != nil {
				t.Fatal(err)
			}
			cfg := e.Make(EtaSeed)
			cfg.RPCClients = true
			rpcRes, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			compareRuns(t, e.Name, localRes, rpcRes)
		})
	}
}
