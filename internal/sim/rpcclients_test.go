package sim

import (
	"reflect"
	"testing"
)

// requireSameResult runs cfg plain and with on applied, and demands the
// two whole Results equal once their Configs are set equal.
func requireSameResult(t *testing.T, cfg ScenarioConfig, on func(*ScenarioConfig)) {
	t.Helper()
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	on(&cfg)
	moded, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	moded.Config = plain.Config
	if !reflect.DeepEqual(plain, moded) {
		t.Errorf("%s: result diverges:\n  plain %+v\n  moded %+v", cfg.Name, plain, moded)
	}
}

// TestRPCClientsEtaMatchesInProcess pins the serving tier against the
// in-process client on both Figure-2 client modes of the paper rig; the
// full sweep over every mode cell is internal/scenarios' TestModeMatrix.
func TestRPCClientsEtaMatchesInProcess(t *testing.T) {
	for _, mk := range []func(int, int64) ScenarioConfig{SerethClient, GethUnmodified} {
		requireSameResult(t, mk(20, 101), func(c *ScenarioConfig) { c.RPCClients = true })
	}
}

// TestPersistDeterministic pins store-backed runs against plain runs on
// the paper rig; the run itself fails unless every peer's store reopens
// at the peer's head.
func TestPersistDeterministic(t *testing.T) {
	requireSameResult(t, SerethClient(20, 101), func(c *ScenarioConfig) { c.Persist = true })
}
