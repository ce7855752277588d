// Exchange: the paper's §II-F motivating use case — a decentralized
// market where the price changes frequently and concurrent buyers race
// it. The same workload runs twice, once with standard Geth clients
// (READ-COMMITTED views) and once with Sereth clients (READ-UNCOMMITTED
// views via HMS/RAA), showing how many orders survive in each world.
package main

import (
	"fmt"
	"os"

	"sereth"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "exchange:", err)
		os.Exit(1)
	}
}

func run() error {
	fmt.Println("dynamic-pricing market: 30 orders racing 15 price changes")
	fmt.Println()
	fmt.Printf("%-22s %8s %8s %10s\n", "client", "orders", "filled", "efficiency")

	for _, mode := range []sereth.Mode{sereth.ModeGeth, sereth.ModeSereth} {
		filled, total, err := runMarket(mode)
		if err != nil {
			return err
		}
		fmt.Printf("%-22s %8d %8d %9.0f%%\n",
			label(mode), total, filled, 100*float64(filled)/float64(total))
	}
	fmt.Println()
	fmt.Println("READ-UNCOMMITTED views let buyers chase the pending price instead")
	fmt.Println("of a stale committed one (paper §V-B).")
	return nil
}

func label(m sereth.Mode) string {
	if m == sereth.ModeSereth {
		return "sereth (READ-UNCOMM.)"
	}
	return "geth (READ-COMMITTED)"
}

// runMarket replays a fixed workload: the owner moves the price every
// two ticks while buyers place orders every tick, one block per 10
// ticks. Returns filled and total orders.
func runMarket(mode sereth.Mode) (filled, total int, err error) {
	owner := sereth.NewKey("owner")
	registry := sereth.NewRegistry()
	registry.Register(owner)
	buyers := make([]*sereth.Key, 10)
	for i := range buyers {
		buyers[i] = sereth.NewKey(fmt.Sprintf("trader-%d", i))
		registry.Register(buyers[i])
	}

	genesis, contract := sereth.NewGenesisWithContract()
	net := sereth.NewNetwork(sereth.NetworkConfig{LatencyMs: 20, Seed: 7})
	minerNode, err := sereth.NewNode(sereth.NodeConfig{
		ID: 1, Mode: sereth.ModeGeth, Miner: sereth.MinerBaseline,
		Contract: contract, Genesis: genesis, Network: net, Registry: registry, Seed: 11,
	})
	if err != nil {
		return 0, 0, err
	}
	clientNode, err := sereth.NewNode(sereth.NodeConfig{
		ID: 2, Mode: mode, Miner: sereth.MinerNone,
		Contract: contract, Genesis: genesis, Network: net, Registry: registry,
	})
	if err != nil {
		return 0, 0, err
	}

	const (
		ticks     = 30
		tickMs    = 1000
		blockEach = 10
	)
	var (
		ownerNonce uint64
		ownerMark  sereth.Word
		buyerNonce = make([]uint64, len(buyers))
		orders     = make(map[sereth.Hash]bool)
	)
	// The miner's chain hands every block it adopts or orphans to its
	// watchers, with its receipts in body order: an order counts as
	// filled when its block lands (and would be taken back by a reorg,
	// which one miner never makes).
	minerNode.Chain().Watch(func(block *sereth.Block, _ sereth.Hash, receipts []sereth.Receipt, adopted bool) {
		sign := 1
		if !adopted {
			sign = -1
		}
		for i, receipt := range receipts {
			if orders[block.Txs[i].Hash()] && receipt.Status.String() == "succeeded" {
				filled += sign
			}
		}
	})

	now := uint64(0)
	for tick := 0; tick < ticks; tick++ {
		now = uint64(tick+1) * tickMs
		net.AdvanceTo(now)

		// Price moves every other tick.
		if tick%2 == 0 {
			price := sereth.WordFromUint64(uint64(100 + tick))
			committed := clientNode.StorageAt(contract, sereth.SlotMark)
			flag := sereth.FlagChain
			if ownerMark == committed {
				flag = sereth.FlagHead
			}
			if _, err := clientNode.SubmitSet(owner, ownerNonce, contract, flag, ownerMark, price); err != nil {
				return 0, 0, err
			}
			ownerNonce++
			ownerMark = sereth.NextMark(ownerMark, price)
		}

		// One order per tick, from the next trader, at its best view.
		b := tick % len(buyers)
		flag, mark, value := clientNode.ViewAMV(buyers[b].Address(), contract)
		tx, err := clientNode.SubmitBuy(buyers[b], buyerNonce[b], contract, flag, mark, value)
		if err != nil {
			return 0, 0, err
		}
		buyerNonce[b]++
		orders[tx.Hash()] = true

		if (tick+1)%blockEach == 0 {
			net.AdvanceTo(now + 500)
			if _, err := minerNode.MineAndBroadcast(now / 1000); err != nil {
				return 0, 0, err
			}
		}
	}
	// Drain the remaining pool.
	for i := 0; i < 10 && minerNode.Pool().Len() > 0; i++ {
		now += tickMs
		net.AdvanceTo(now)
		if _, err := minerNode.MineAndBroadcast(now / 1000); err != nil {
			return 0, 0, err
		}
	}
	net.Drain()
	return filled, len(orders), nil
}
