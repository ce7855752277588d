package hms

// The paper's pseudo-code, kept literal, as the oracle for dag.go: it shares
// classifySet and buyInterval with it and nothing else (no index, no memo).

import (
	"slices"

	"sereth/internal/types"
)

// refProcess is Algorithm 2 — filter, mark, the first holder of a mark
// stands — and the buys grouped by the interval they target, in order.
func refProcess(cfg Config, pool []*types.Transaction) (nodes []*Node, buys map[types.Word][]*types.Transaction) {
	buys = make(map[types.Word][]*types.Transaction)
	for _, tx := range pool {
		if interval, ok := cfg.buyInterval(tx); ok {
			buys[interval] = append(buys[interval], tx)
		}
		fpv, mark, ok := cfg.classifySet(tx)
		if ok && !slices.ContainsFunc(nodes, func(n *Node) bool { return n.Mark == mark }) {
			nodes = append(nodes, &Node{Tx: tx, FPV: fpv, Mark: mark})
		}
	}
	return nodes, buys
}

// refDeepest is Algorithm 3's DEEPESTBRANCH, path-copying; of equally deep
// children the first wins. onPath makes a forged mark cycle terminate.
func refDeepest(n *Node, nodes []*Node, onPath map[*Node]bool) []*Node {
	onPath[n] = true
	defer delete(onPath, n)
	var best []*Node
	for _, c := range nodes {
		if c.FPV.PrevMark == n.Mark && !onPath[c] {
			if branch := refDeepest(c, nodes, onPath); len(branch) > len(best) {
				best = branch
			}
		}
	}
	return append([]*Node{n}, best...)
}

// refSeries is the first deepest branch of any head candidate: a set
// chained off the committed mark that is head-flagged or, under
// ExtendHeads, has no pending parent.
func refSeries(cfg Config, committed types.Word, nodes []*Node) (best []*Node) {
	for _, n := range nodes {
		orphan := !slices.ContainsFunc(nodes, func(p *Node) bool { return p != n && p.Mark == committed })
		if n.FPV.PrevMark == committed && (n.FPV.Flag == types.FlagHead || cfg.ExtendHeads && orphan) {
			if branch := refDeepest(n, nodes, map[*Node]bool{}); len(branch) > len(best) {
				best = branch
			}
		}
	}
	return best
}

// refView is Algorithm 1: the series tail, or the committed state.
func refView(committed types.AMV, series []*Node) View {
	if len(series) == 0 {
		return View{AMV: committed, Flag: types.FlagHead}
	}
	tail := series[len(series)-1]
	return View{AMV: types.AMV{Address: tail.Tx.From, Mark: tail.Mark, Value: tail.FPV.Value}, Flag: types.FlagChain, Depth: len(series)}
}

// refPrefix is §V-C: the committed interval's buys, then each set of the
// series and its buys (the committed interval's never twice).
func refPrefix(committed types.Word, buys map[types.Word][]*types.Transaction, series []*Node) []*types.Transaction {
	out := slices.Clone(buys[committed])
	for _, n := range series {
		out = append(out, n.Tx)
		if n.Mark != committed {
			out = append(out, buys[n.Mark]...)
		}
	}
	return out
}
