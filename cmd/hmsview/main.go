// Command hmsview serializes a TxPool dump into a Hash-Mark-Set series:
// it reads RLP-encoded transactions (one hex string per line) from stdin
// or a file, runs Algorithms 1-3, and prints the resulting series and the
// READ-UNCOMMITTED view. Useful for inspecting what HMS would report for
// a given pool state.
//
// Usage:
//
//	hmsview [-contract 0x..cc] [-committed-mark 0x..] < pool.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"encoding/hex"

	"sereth/internal/asm"
	"sereth/internal/hms"
	"sereth/internal/types"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hmsview:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("hmsview", flag.ContinueOnError)
	contractHex := fs.String("contract", "0x00000000000000000000000000000000000000cc",
		"Sereth contract address")
	committedHex := fs.String("committed-mark", "0x0",
		"mark committed by the last published block")
	file := fs.String("file", "", "read pool dump from file instead of stdin")
	if err := fs.Parse(args); err != nil {
		return err
	}

	contract, err := types.HexToAddress(*contractHex)
	if err != nil {
		return fmt.Errorf("contract: %w", err)
	}
	committed, err := types.HexToHash(*committedHex)
	if err != nil {
		return fmt.Errorf("committed mark: %w", err)
	}

	in := stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		defer func() { _ = f.Close() }()
		in = f
	}

	pool, err := readPool(in)
	if err != nil {
		return err
	}

	tracker := hms.NewTracker(hms.Config{
		Contract:    contract,
		SetSelector: asm.SelSet,
		BuySelector: asm.SelBuy,
	})
	tracker.SetCommitted(types.AMV{Mark: committed.Word()})

	series := tracker.SeriesOf(pool)
	view := tracker.ViewOf(pool)

	fmt.Fprintf(stdout, "pool: %d transactions\n", len(pool))
	fmt.Fprintf(stdout, "series: %d transactions\n", len(series))
	for i, n := range series {
		v, _ := n.FPV.Value.Uint64()
		fmt.Fprintf(stdout, "  %2d. from=%s value=%d mark=%s\n",
			i+1, n.Tx.From.Hex(), v, n.Mark.Hex())
	}
	v, _ := view.AMV.Value.Uint64()
	fmt.Fprintf(stdout, "view: depth=%d flag=%s value=%d mark=%s\n",
		view.Depth, flagName(view.Flag), v, view.AMV.Mark.Hex())
	return nil
}

func flagName(w types.Word) string {
	switch w {
	case types.FlagHead:
		return "head"
	case types.FlagChain:
		return "chain"
	default:
		return w.Hex()
	}
}

// readPool parses one hex-encoded RLP transaction per line, skipping
// blanks and #-comments.
func readPool(r io.Reader) ([]*types.Transaction, error) {
	var pool []*types.Transaction
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		line = strings.TrimPrefix(line, "0x")
		raw, err := hex.DecodeString(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		tx, err := types.DecodeTransaction(raw)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		pool = append(pool, tx)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return pool, nil
}
