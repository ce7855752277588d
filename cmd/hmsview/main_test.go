package main

import (
	"encoding/hex"
	"strings"
	"testing"

	"sereth/internal/asm"
	"sereth/internal/types"
	"sereth/internal/wallet"
)

// dump encodes a chained pool as hmsview input.
func dump(t *testing.T, n int) string {
	t.Helper()
	owner := wallet.NewKey("owner")
	contract := types.Address{19: 0xcc}
	var b strings.Builder
	b.WriteString("# test pool\n\n")
	prev := types.ZeroWord
	flag := types.FlagHead
	for i := 0; i < n; i++ {
		v := types.WordFromUint64(uint64(10 + i))
		tx := owner.SignTx(&types.Transaction{
			Nonce: uint64(i), To: contract, GasPrice: 10, GasLimit: 300_000,
			Data: types.EncodeCall(asm.SelSet, flag, prev, v),
		})
		b.WriteString("0x" + hex.EncodeToString(tx.EncodeRLP()) + "\n")
		prev = types.NextMark(prev, v)
		flag = types.FlagChain
	}
	return b.String()
}

func TestRunSerializesPool(t *testing.T) {
	var out strings.Builder
	err := run(nil, strings.NewReader(dump(t, 3)), &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"pool: 3 transactions",
		"series: 3 transactions",
		"view: depth=3 flag=chain value=12",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunEmptyPool(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("# nothing\n"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "view: depth=0 flag=head") {
		t.Errorf("empty pool output: %s", out.String())
	}
}

func TestRunBadInput(t *testing.T) {
	var out strings.Builder
	if err := run(nil, strings.NewReader("0xzz\n"), &out); err == nil {
		t.Error("bad hex accepted")
	}
	if err := run(nil, strings.NewReader("0x0102\n"), &out); err == nil {
		t.Error("bad RLP accepted")
	}
}

func TestRunFlags(t *testing.T) {
	var out strings.Builder
	// Committed mark set to the first tx's mark: the chain becomes
	// headless under the default head rule, so the view falls back.
	owner := wallet.NewKey("owner")
	_ = owner
	m1 := types.NextMark(types.ZeroWord, types.WordFromUint64(10))
	err := run([]string{"-committed-mark", m1.Hex()}, strings.NewReader(dump(t, 1)), &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "depth=0") {
		t.Errorf("stale head should fall back to committed view: %s", out.String())
	}
	if err := run([]string{"-contract", "0xzz"}, strings.NewReader(""), &out); err == nil {
		t.Error("bad contract flag accepted")
	}
}
