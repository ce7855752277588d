package sim

import (
	"testing"
)

// TestCrashSingleRecovers runs the single-kill variant end to end: the
// crashed peer must salvage its datadir, reopen on a durable head, and
// the whole population must converge.
func TestCrashSingleRecovers(t *testing.T) {
	res, err := Run(CrashSingle(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Crashes)
	}
	if res.CrashRecoveries != res.Crashes {
		t.Fatalf("recoveries %d != crashes %d", res.CrashRecoveries, res.Crashes)
	}
	if !res.Converged {
		t.Fatal("population did not converge after crash recovery")
	}
	if res.Efficiency() <= 0 {
		t.Fatalf("eta = %v", res.Efficiency())
	}
}

// TestCrashHonestTwinUnaffected pins the fault gating: a crash config
// with faults zeroed must produce the exact result of the plain
// persisted scenario — the crash layer never perturbs honest runs.
func TestCrashHonestTwinUnaffected(t *testing.T) {
	base := Crash(7)
	withLayer := Crash(7)
	withLayer.Faults = FaultPlan{}
	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(withLayer)
	if err != nil {
		t.Fatal(err)
	}
	if a.BuysSucceeded != b.BuysSucceeded || a.BuysIncluded != b.BuysIncluded || a.Blocks != b.Blocks {
		t.Fatalf("honest twin diverged: %+v vs %+v", a, b)
	}
}
