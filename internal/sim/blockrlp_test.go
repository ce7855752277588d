package sim_test

import (
	"bytes"
	"math/rand"
	"testing"

	"sereth/internal/rlp"
	"sereth/internal/scenarios"
	"sereth/internal/sim"
	"sereth/internal/types"
)

// The Item-tree form of the block and transaction records, as
// EncodeRLP built them before it took the flat append path: the
// reference the flat encoders are pinned to, byte for byte.

func txItem(tx *types.Transaction) rlp.Item {
	return rlp.List(
		rlp.Uint(tx.Nonce),
		rlp.String(tx.To[:]),
		rlp.Uint(tx.Value),
		rlp.Uint(tx.GasPrice),
		rlp.Uint(tx.GasLimit),
		rlp.String(tx.Data),
		rlp.String(tx.From[:]),
		rlp.String(tx.Sig[:]),
	)
}

func headerItem(h *types.Header) rlp.Item {
	return rlp.List(
		rlp.String(h.ParentHash[:]),
		rlp.Uint(h.Number),
		rlp.String(h.StateRoot[:]),
		rlp.String(h.TxRoot[:]),
		rlp.String(h.ReceiptRoot[:]),
		rlp.String(h.Coinbase[:]),
		rlp.Uint(h.Difficulty),
		rlp.Uint(h.GasLimit),
		rlp.Uint(h.GasUsed),
		rlp.Uint(h.Time),
		rlp.Uint(h.PowNonce),
	)
}

func blockItem(b *types.Block) rlp.Item {
	txs := make([]rlp.Item, len(b.Txs))
	for i, tx := range b.Txs {
		txs[i] = txItem(tx)
	}
	return rlp.List(headerItem(b.Header), rlp.List(txs...))
}

// checkBlockRecord pins one block: its record and its header's against
// the Item form, and the record's round trip through DecodeBlock.
func checkBlockRecord(t *testing.T, b *types.Block) {
	t.Helper()
	enc := b.EncodeRLP()
	if want := rlp.Encode(blockItem(b)); !bytes.Equal(enc, want) {
		t.Fatalf("block %d: EncodeRLP = %x, Item form %x", b.Number(), enc, want)
	}
	if got, want := b.Header.EncodeRLP(), rlp.Encode(headerItem(b.Header)); !bytes.Equal(got, want) {
		t.Fatalf("block %d: header EncodeRLP = %x, Item form %x", b.Number(), got, want)
	}
	back, err := types.DecodeBlock(enc)
	if err != nil {
		t.Fatalf("block %d: DecodeBlock(EncodeRLP): %v", b.Number(), err)
	}
	if back.Hash() != b.Hash() || back.TxRoot() != b.TxRoot() || len(back.Txs) != len(b.Txs) {
		t.Fatalf("block %d does not round-trip", b.Number())
	}
	if again := back.EncodeRLP(); !bytes.Equal(again, enc) {
		t.Fatalf("block %d: the decoded block encodes to %x, not %x", b.Number(), again, enc)
	}
}

// TestBlockRecordsMatchItemForm runs every golden η scenario and pins
// every block of the primary client's chain.
func TestBlockRecordsMatchItemForm(t *testing.T) {
	for _, e := range scenarios.EtaTable() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			t.Parallel()
			_, blocks, err := sim.RunBlocks(e.Make(scenarios.EtaSeed))
			if err != nil {
				t.Fatal(err)
			}
			if len(blocks) == 0 {
				t.Fatal("the scenario adopted no block")
			}
			txs := 0
			for _, b := range blocks {
				checkBlockRecord(t, b)
				txs += len(b.Txs)
			}
			if txs == 0 {
				t.Fatal("the scenario's blocks carry no transaction")
			}
		})
	}
}

// TestTransactionRecordsMatchItemForm pins seeded random transactions —
// empty calldata, zero fields, single bytes below 0x80, calldata on both
// sides of the 56-byte long-string boundary — and blocks built of them.
func TestTransactionRecordsMatchItemForm(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	// uintOf draws zero, a single byte below and above 0x80, and wider.
	uintOf := func() uint64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return uint64(rng.Intn(0x80))
		case 2:
			return 0x80 + uint64(rng.Intn(0x80))
		case 3:
			return rng.Uint64() >> uint(8*rng.Intn(8))
		default:
			return rng.Uint64()
		}
	}
	var body []*types.Transaction
	for i := 0; i < 3000; i++ {
		tx := &types.Transaction{Nonce: uintOf(), Value: uintOf(), GasPrice: uintOf(), GasLimit: uintOf()}
		if rng.Intn(4) > 0 {
			rng.Read(tx.To[:])
			rng.Read(tx.From[:])
			rng.Read(tx.Sig[:])
		}
		switch rng.Intn(6) {
		case 0: // empty
		case 1:
			tx.Data = []byte{byte(rng.Intn(0x80))}
		case 2:
			tx.Data = []byte{0x80 + byte(rng.Intn(0x80))}
		case 3:
			tx.Data = make([]byte, 54+rng.Intn(4))
		default:
			tx.Data = make([]byte, rng.Intn(300))
		}
		rng.Read(tx.Data)
		enc := tx.EncodeRLP()
		if want := rlp.Encode(txItem(tx)); !bytes.Equal(enc, want) {
			t.Fatalf("tx %d: EncodeRLP = %x, Item form %x", i, enc, want)
		}
		if tx.Hash() != types.Keccak(enc) {
			t.Fatalf("tx %d: Hash is not the Keccak of the record", i)
		}
		// The signing digest covers the same list less its last field.
		fields, _ := txItem(tx).Items()
		if tx.SigHash() != types.Keccak(rlp.Encode(rlp.List(fields[:7]...))) {
			t.Fatalf("tx %d: SigHash is not the Keccak of the signed fields' Item form", i)
		}
		back, err := types.DecodeTransaction(enc)
		if err != nil {
			t.Fatalf("tx %d: DecodeTransaction(EncodeRLP): %v", i, err)
		}
		if again := back.EncodeRLP(); !bytes.Equal(again, enc) {
			t.Fatalf("tx %d does not round-trip", i)
		}
		body = append(body, tx)
		if len(body) == rng.Intn(40) || i == 2999 {
			h := &types.Header{Number: uintOf(), Difficulty: uintOf(), GasLimit: uintOf(), GasUsed: uintOf(), Time: uintOf(), PowNonce: uintOf()}
			rng.Read(h.ParentHash[:])
			rng.Read(h.StateRoot[:])
			rng.Read(h.Coinbase[:])
			checkBlockRecord(t, &types.Block{Header: h, Txs: body})
			body = nil
		}
	}
	checkBlockRecord(t, &types.Block{Header: &types.Header{}})
}
