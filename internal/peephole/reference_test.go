package peephole_test

import (
	"aviv/internal/cover"
	"aviv/internal/peephole"
)

// referenceOptimize is peephole.Optimize with the Verify-per-move
// compaction, the direct transcription of the paper's Sec. IV-G rule:
// try the move, keep it only if the whole solution still verifies. It is
// the oracle the local move check is measured against.
func referenceOptimize(sol *cover.Solution) *cover.Solution {
	best := sol
	if improved, ok := peephole.RemoveRedundantSpills(best); ok {
		best = improved
	}
	if improved, ok := referenceCompact(best); ok {
		best = improved
	}
	return best
}

// referenceCompact moves nodes into earlier instructions when
// dependences, bank pressure, and grouping legality allow, then drops
// emptied instructions. Every candidate slot from one past the latest
// predecessor on is tried with the whole-solution Verify.
func referenceCompact(sol *cover.Solution) (*cover.Solution, bool) {
	c := sol.Clone()
	changed := false
	for {
		moved := false
		pos := positions(c)
		for i := 1; i < len(c.Instrs); i++ {
			for _, n := range append([]*cover.SNode(nil), c.Instrs[i]...) {
				earliest := 0
				for _, p := range n.Preds {
					if pos[p]+1 > earliest {
						earliest = pos[p] + 1
					}
				}
				for _, p := range n.OrdPreds {
					if pos[p]+1 > earliest {
						earliest = pos[p] + 1
					}
				}
				for j := earliest; j < i; j++ {
					if tryMove(c, n, i, j) {
						pos = positions(c)
						moved = true
						changed = true
						break
					}
				}
			}
		}
		if !moved {
			break
		}
	}
	c.Instrs = dropEmpty(c.Instrs)
	if !changed || c.Cost() >= sol.Cost() {
		return nil, false
	}
	if err := c.Verify(); err != nil {
		return nil, false
	}
	return c, true
}

// tryMove relocates node n from instruction i to j, keeping the move only
// if the solution still verifies.
func tryMove(c *cover.Solution, n *cover.SNode, i, j int) bool {
	c.Instrs[i] = removeFrom(c.Instrs[i], n)
	c.Instrs[j] = append(c.Instrs[j], n)
	if err := c.Verify(); err != nil {
		c.Instrs[j] = removeFrom(c.Instrs[j], n)
		c.Instrs[i] = append(c.Instrs[i], n)
		return false
	}
	return true
}

func positions(c *cover.Solution) map[*cover.SNode]int {
	pos := make(map[*cover.SNode]int)
	for i, instr := range c.Instrs {
		for _, n := range instr {
			pos[n] = i
		}
	}
	return pos
}

func removeFrom(list []*cover.SNode, x *cover.SNode) []*cover.SNode {
	var out []*cover.SNode
	for _, n := range list {
		if n != x {
			out = append(out, n)
		}
	}
	return out
}

func dropEmpty(instrs [][]*cover.SNode) [][]*cover.SNode {
	var out [][]*cover.SNode
	for _, instr := range instrs {
		if len(instr) > 0 {
			out = append(out, instr)
		}
	}
	return out
}
