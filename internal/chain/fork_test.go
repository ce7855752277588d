package chain

import (
	"errors"
	"testing"

	"sereth/internal/types"
	"sereth/internal/wallet"
)

// forkRig builds two chains from one genesis and diverges them: the
// local chain gets localLen blocks, the remote one remoteLen, with
// distinct first transactions so the branches differ.
func forkRig(t *testing.T, localLen, remoteLen int) (local, remote *Chain, remoteBlocks []*types.Block) {
	t.Helper()
	reg := wallet.NewRegistry()
	owner := wallet.NewKey("fork-owner")
	reg.Register(owner)
	local = newTestChain(t, reg)
	remote = newTestChain(t, reg)

	grow := func(c *Chain, n int, firstValue uint64) []*types.Block {
		var out []*types.Block
		for i := 0; i < n; i++ {
			var txs []*types.Transaction
			if i == 0 {
				txs = []*types.Transaction{setTxFor(owner, 0, types.ZeroWord, firstValue, types.FlagHead)}
			}
			blk := buildBlock(t, c, txs)
			if _, err := c.InsertBlock(blk); err != nil {
				t.Fatalf("grow: %v", err)
			}
			out = append(out, blk)
		}
		return out
	}
	grow(local, localLen, 5)
	remoteBlocks = grow(remote, remoteLen, 7)
	return local, remote, remoteBlocks
}

func TestImportForkAdoptsLongerBranch(t *testing.T) {
	local, remote, remoteBlocks := forkRig(t, 2, 4)
	orphaned, err := local.ImportFork(remoteBlocks)
	if err != nil {
		t.Fatalf("ImportFork: %v", err)
	}
	if orphaned != 2 {
		t.Errorf("orphaned = %d, want 2", orphaned)
	}
	if local.Height() != 4 {
		t.Errorf("height = %d, want 4", local.Height())
	}
	for n := uint64(1); n <= 4; n++ {
		if local.BlockByNumber(n).Hash() != remote.BlockByNumber(n).Hash() {
			t.Fatalf("block %d differs from the adopted branch", n)
		}
	}
	// Post-reorg state must be the remote branch's, and the chain must
	// keep extending from it.
	if local.Head().Header.StateRoot != remote.Head().Header.StateRoot {
		t.Error("state root not switched to the fork's")
	}
	next := buildBlock(t, remote, nil)
	if _, err := local.InsertBlock(next); err != nil {
		t.Errorf("extending after reorg: %v", err)
	}
}

func TestImportForkRejectsEqualLength(t *testing.T) {
	local, _, remoteBlocks := forkRig(t, 3, 3)
	orphaned, err := local.ImportFork(remoteBlocks)
	if !errors.Is(err, ErrForkTooShort) {
		t.Fatalf("equal-length fork: err = %v, want ErrForkTooShort", err)
	}
	if local.Height() != 3 || orphaned != 0 {
		t.Error("rejected fork mutated the chain")
	}
}

func TestImportForkRejectsCorruptBlockWithoutMutation(t *testing.T) {
	local, _, remoteBlocks := forkRig(t, 2, 4)
	headBefore := local.Head().Hash()

	// Corrupt the fork tip's state root: the branch must be rejected as a
	// whole, before any part of it is adopted.
	tip := remoteBlocks[len(remoteBlocks)-1]
	hdr := *tip.Header
	hdr.StateRoot = types.Hash{0xde, 0xad}
	forged := &types.Block{Header: &hdr, Txs: tip.Txs}
	bad := append(append([]*types.Block{}, remoteBlocks[:len(remoteBlocks)-1]...), forged)

	orphaned, err := local.ImportFork(bad)
	if err == nil {
		t.Fatal("corrupt fork accepted")
	}
	if local.Head().Hash() != headBefore || local.Height() != 2 || orphaned != 0 {
		t.Error("rejected fork left partial mutation behind")
	}
}

func TestImportForkUnknownParent(t *testing.T) {
	local, _, remoteBlocks := forkRig(t, 2, 4)
	// Dropping the branch's first block leaves the rest dangling above an
	// unknown parent.
	if _, err := local.ImportFork(remoteBlocks[1:]); !errors.Is(err, ErrUnknownParent) {
		t.Fatalf("dangling fork: err = %v, want ErrUnknownParent", err)
	}
}

func TestImportForkSkipsCanonicalPrefix(t *testing.T) {
	reg := wallet.NewRegistry()
	owner := wallet.NewKey("fork-owner")
	reg.Register(owner)
	local := newTestChain(t, reg)
	remote := newTestChain(t, reg)

	// Shared block 1 on both chains.
	shared := buildBlock(t, remote, []*types.Transaction{
		setTxFor(owner, 0, types.ZeroWord, 5, types.FlagHead),
	})
	if _, err := remote.InsertBlock(shared); err != nil {
		t.Fatal(err)
	}
	if _, err := local.InsertBlock(shared); err != nil {
		t.Fatal(err)
	}
	// Local diverges with its own block 2; remote grows to height 3.
	mine := buildBlock(t, local, []*types.Transaction{
		setTxFor(owner, 1, types.NextMark(types.ZeroWord, types.WordFromUint64(5)), 9, types.FlagHead),
	})
	if _, err := local.InsertBlock(mine); err != nil {
		t.Fatal(err)
	}
	branch := []*types.Block{shared}
	for i := 0; i < 2; i++ {
		blk := buildBlock(t, remote, nil)
		if _, err := remote.InsertBlock(blk); err != nil {
			t.Fatal(err)
		}
		branch = append(branch, blk)
	}

	// The branch is handed over including the already-canonical block 1;
	// the import must skip it and orphan only the divergent block 2.
	orphaned, err := local.ImportFork(branch)
	if err != nil {
		t.Fatalf("ImportFork: %v", err)
	}
	if orphaned != 1 {
		t.Errorf("orphaned = %d, want 1", orphaned)
	}
	if local.Height() != 3 || local.Head().Hash() != remote.Head().Hash() {
		t.Error("canonical-prefix fork not adopted correctly")
	}
}
