// Oracle: Runtime Argument Augmentation as a lightweight replacement for
// blockchain oracles (paper §III-D). A custom RAA provider feeds an
// external "exchange rate" into the contract's read-only calls without
// any on-chain oracle contract; the demo also shows the security
// boundary — signed transaction calldata cannot be augmented, and a
// tampered transaction is rejected at validation.
package main

import (
	"errors"
	"fmt"
	"os"

	"sereth"
	"sereth/internal/evm"
	"sereth/internal/raa"
	"sereth/internal/statedb"
	"sereth/internal/types"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "oracle:", err)
		os.Exit(1)
	}
}

func run() error {
	// A standalone EVM with the Sereth contract installed: get() is a
	// pure function returning its third argument word — the slot RAA
	// fills in.
	st := statedb.New()
	contract := types.Address{19: 0xcc}
	st.SetCode(contract, sereth.SerethContract())
	machine := evm.New(st, evm.BlockContext{Number: 1})

	// The external data service: a (mock) exchange-rate feed. In a real
	// deployment this would query a market-data API; here it is a value
	// that changes between calls to show freshness.
	rate := uint64(31415)
	feed := raa.ProviderFunc(func(_ types.Address, args []byte) bool {
		// Layout matches get(raa): [flag, mark, value] — the feed writes
		// the rate into the value slot the contract returns.
		return raa.SetWord(args, 2, sereth.WordFromUint64(rate))
	})

	service := raa.NewService()
	service.Register(contract, sereth.SelGet, feed)
	machine.SetRAAProvider(service)

	call := func() (uint64, error) {
		res := machine.Call(evm.CallContext{
			Contract: contract,
			Input:    sereth.EncodeCall(sereth.SelGet, sereth.Word{}, sereth.Word{}, sereth.Word{}),
			Gas:      1_000_000,
			ReadOnly: true,
		})
		if res.Err != nil {
			return 0, res.Err
		}
		v, _ := res.ReturnWord().Uint64()
		return v, nil
	}

	v1, err := call()
	if err != nil {
		return err
	}
	fmt.Printf("contract get() sees external rate: %d\n", v1)

	rate = 27182 // the feed moves
	v2, err := call()
	if err != nil {
		return err
	}
	fmt.Printf("next call sees the fresh rate:     %d (no oracle tx, no block wait)\n", v2)

	// Security boundary: a transaction's calldata is covered by the
	// signature, so a malicious client that rewrites it produces a
	// transaction the network rejects (paper §III-D).
	owner := sereth.NewKey("owner")
	registry := sereth.NewRegistry()
	registry.Register(owner)
	tx := owner.SignTx(&sereth.Transaction{
		Nonce: 0, To: contract, GasPrice: 10, GasLimit: 300_000,
		Data: sereth.EncodeCall(sereth.SelSet, sereth.FlagHead, sereth.Word{}, sereth.WordFromUint64(100)),
	})
	if err := registry.VerifyTx(tx); err != nil {
		return fmt.Errorf("honest tx rejected: %w", err)
	}
	tampered := tx.Copy()
	tampered.Data[len(tampered.Data)-1] = 200 // double the price offered
	if err := registry.VerifyTx(tampered); err == nil {
		return errors.New("tampered transaction was accepted — signature check broken")
	}
	fmt.Println("tampered signed transaction rejected at validation — RAA cannot")
	fmt.Println("modify transactions, only read-only calls (paper §III-D).")
	return nil
}
