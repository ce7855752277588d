// Storage fault injection. FaultStore wraps a Store and injects, from
// a seeded RNG, the failure modes a disk and a dying process actually
// produce: clean write errors, torn appends (a crash mid-append leaves
// a byte-granular prefix of the batch), silent bit-flip corruption,
// and crashes that lose the unsynced tail (fsync semantics: everything
// after the last Sync may vanish). It mirrors the p2p fault-policy
// style from the chaos layer: a nil or zero policy is a bit-identical
// passthrough, so the same construction serves honest twins and
// injected runs from one code path.
package store

import (
	"errors"
	"math/rand"
	"sync"
)

// ErrInjectedFault is the clean failure returned by an injected write
// error; the underlying store is untouched.
var ErrInjectedFault = errors.New("store: injected write failure")

// ErrCrashed is returned by every operation after the store has
// crashed. The harness reopens the datadir to model the restart.
var ErrCrashed = errors.New("store: crashed")

// FaultPolicy configures deterministic storage fault injection. The
// zero value injects nothing and keeps FaultStore a pure passthrough.
// Write counters are 1-based and count Write/Put calls (a Put is one
// write).
type FaultPolicy struct {
	// Seed drives the fault RNG (byte offsets of tears, flips and
	// tail cuts). The same policy over the same write sequence injects
	// the same damage.
	Seed int64
	// FailEveryNth makes every Nth write fail cleanly with
	// ErrInjectedFault, nothing applied.
	FailEveryNth int
	// TornAppendAtWrite crashes the store at that write, leaving a
	// random strict byte prefix of the encoded batch in the log.
	TornAppendAtWrite int
	// FlipBitAtWrite flips one random bit of the durable log right
	// after that write commits — silent corruption: a miss to Get, and
	// repaired or quarantined by the next replay.
	FlipBitAtWrite int
	// CrashAtWrite crashes the store right after that write commits.
	CrashAtWrite int
	// DropUnsyncedOnCrash models fsync semantics on crash: the log is
	// cut at a random byte between the last synced size and the
	// current size. Without it a crash keeps everything written.
	DropUnsyncedOnCrash bool
}

// zero reports whether the policy injects nothing (Seed alone does not
// arm anything).
func (p *FaultPolicy) zero() bool {
	return p == nil || (p.FailEveryNth == 0 && p.TornAppendAtWrite == 0 &&
		p.FlipBitAtWrite == 0 && p.CrashAtWrite == 0 && !p.DropUnsyncedOnCrash)
}

// FaultStore wraps a Store with deterministic fault injection. With a
// nil/zero policy every operation delegates directly — byte-identical
// log, identical results. Byte-level faults (tears, flips, tail cuts)
// need file backing and are no-ops over a MemStore.
type FaultStore struct {
	inner Store
	fs    *FileStore // non-nil when inner is file-backed
	pol   FaultPolicy
	rng   *rand.Rand

	mu      sync.Mutex
	writes  int
	crashed bool
}

// NewFault wraps inner with the given policy. A nil policy is the
// zero policy (pure passthrough).
func NewFault(inner Store, pol *FaultPolicy) *FaultStore {
	s := &FaultStore{inner: inner}
	if fs, ok := inner.(*FileStore); ok {
		s.fs = fs
	}
	if pol != nil {
		s.pol = *pol
	}
	if !s.pol.zero() {
		s.rng = rand.New(rand.NewSource(s.pol.Seed))
	}
	return s
}

// Get reads through to the inner store. A crashed file-backed store has
// abandoned its descriptor and serves nothing — never bytes that are no
// longer on disk; harnesses reopen the datadir for the post-crash view.
func (s *FaultStore) Get(key []byte) ([]byte, bool) { return s.inner.Get(key) }

// Put routes through Write so it counts as one write for the policy.
func (s *FaultStore) Put(key, value []byte) error {
	b := &Batch{}
	b.Put(key, value)
	return s.Write(b)
}

// Write applies the batch, injecting any fault armed for this write
// ordinal.
func (s *FaultStore) Write(b *Batch) error {
	if s.pol.zero() {
		return s.inner.Write(b)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	s.writes++
	if s.pol.FailEveryNth > 0 && s.writes%s.pol.FailEveryNth == 0 {
		return ErrInjectedFault
	}
	if s.writes == s.pol.TornAppendAtWrite && s.fs != nil {
		enc := b.sealed() // the records exactly as Write would append them
		cut := 0
		if len(enc) > 1 {
			cut = 1 + s.rng.Intn(len(enc)-1) // strict, non-empty prefix
		}
		_ = s.fs.rawAppend(enc[:cut])
		s.crashLocked()
		return ErrCrashed
	}
	if err := s.inner.Write(b); err != nil {
		return err
	}
	if s.writes == s.pol.FlipBitAtWrite && s.fs != nil {
		size, _ := s.fs.sizes()
		if logStart := int64(len(logMagic)); size > logStart {
			off := logStart + s.rng.Int63n(size-logStart)
			_ = s.fs.rawFlipBit(off, uint(s.rng.Intn(8)))
		}
	}
	if s.writes == s.pol.CrashAtWrite {
		s.crashLocked()
		return ErrCrashed
	}
	return nil
}

// Sync forwards to the inner store's durability point.
func (s *FaultStore) Sync() error {
	if s.pol.zero() {
		if sy, ok := s.inner.(Syncer); ok {
			return sy.Sync()
		}
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	if sy, ok := s.inner.(Syncer); ok {
		return sy.Sync()
	}
	return nil
}

// Crash kills the store now: with DropUnsyncedOnCrash the log is cut
// at a seeded random byte past the last Sync, then the file handle is
// abandoned without flushing. Every later operation fails with
// ErrCrashed. The sim uses this to kill a peer at a random commit
// point.
func (s *FaultStore) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.crashed {
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(s.pol.Seed))
		}
		s.crashLocked()
	}
}

func (s *FaultStore) crashLocked() {
	s.crashed = true
	if s.fs == nil {
		return
	}
	if s.pol.DropUnsyncedOnCrash {
		size, synced := s.fs.sizes()
		if size > synced {
			cut := synced + s.rng.Int63n(size-synced+1)
			_ = s.fs.rawTruncate(cut)
		}
	}
	s.fs.abandon()
}

// Writes returns how many writes the policy has observed.
func (s *FaultStore) Writes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.writes
}

// Salvage forwards the inner store's salvage report.
func (s *FaultStore) Salvage() SalvageReport {
	if sv, ok := s.inner.(Salvager); ok {
		return sv.Salvage()
	}
	return SalvageReport{}
}

// Compact forwards to the inner store; after a crash it refuses, closed.
func (s *FaultStore) Compact(keep func(key []byte) bool) (CompactStats, error) {
	return s.inner.Compact(keep)
}

// Close closes the inner store; after a crash it is a no-op (the
// handle is already abandoned).
func (s *FaultStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return nil
	}
	return s.inner.Close()
}
