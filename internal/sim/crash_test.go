package sim

import (
	"errors"
	"sort"
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
	if res.Crash.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", res.Crash.Crashes)
	}
	if res.Crash.Recoveries != res.Crash.Crashes {
		t.Fatalf("recoveries %d != crashes %d", res.Crash.Recoveries, res.Crash.Crashes)
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
	withLayer.Faults = Faults{}
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

// TestCrashedLazyNodeIsDiscardedUnread kills the same peer twice, the
// second time a millisecond after its restart: the node recovered from
// its datadir has executed nothing yet, so all of its head state still
// resolves through the store on demand — and a crashed store serves
// nothing, so any read through it panics the trie with a missing node.
// kill takes the peer off the network before its store dies and
// restart replaces the node, so nothing reads it in between.
func TestCrashedLazyNodeIsDiscardedUnread(t *testing.T) {
	s, err := New(CrashSyncEveryBlock(5))
	if err != nil {
		t.Fatal(err)
	}
	defer s.cleanup()
	tl := s.newTimeline()
	// The crash peer's outage is the timeline's only pair of actor
	// events; its restart is the later one.
	var restart uint64
	for _, ev := range tl.subs {
		if ev.fire != nil {
			restart = ev.at
		}
	}
	if restart == 0 || restart+30_000 > tl.lastSub {
		t.Fatalf("no room for a second kill after the restart at %d ms (submissions end at %d)", restart, tl.lastSub)
	}
	c := s.actors[0].(*crasher)
	tl.subs = append(tl.subs, c.outage(c.idxs[0], restart+1, restart+30_000)...)
	sort.SliceStable(tl.subs, func(i, j int) bool { return tl.subs[i].at < tl.subs[j].at })
	s.tl = tl
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Crash.Crashes != 2 || res.Crash.Recoveries != 2 {
		t.Fatalf("crashes %d, recoveries %d, want 2 and 2", res.Crash.Crashes, res.Crash.Recoveries)
	}
	if res.Crash.RecoveredBoots != 2 {
		t.Fatalf("%d of 2 restarts recovered a durable head: the second kill did not land on a lazy node", res.Crash.RecoveredBoots)
	}
	if !res.Converged {
		t.Fatal("population did not converge after the second recovery")
	}
}

// TestCrashRefusesRPCClients: the serving tier would keep serving a
// killed node, so a crash plan with RPCClients fails with the sentinel
// the mode matrix skips on, before any peer or listener is built.
func TestCrashRefusesRPCClients(t *testing.T) {
	cfg := CrashSingle(5)
	cfg.RPCClients = true
	if _, err := Run(cfg); !errors.Is(err, ErrCrashWithRPC) {
		t.Fatalf("err = %v, want ErrCrashWithRPC", err)
	}
}
