// Package peephole implements the post-covering cleanup of the AVIV
// paper's Sec. IV-G: removing loads and spills that the covering's
// pessimistic lifetime analysis inserted unnecessarily, and compacting
// the schedule by moving operations into earlier empty slots when
// dependences and machine constraints allow.
//
// A spill removal is kept only when the edited clone verifies and the
// code size does not grow. A compaction move is decided by
// cover.MoveChecker, which checks only what moving a node into an
// earlier instruction can change: the node's predecessors (with their
// real latencies), the grouping legality of the target instruction, and
// the register pressure of the node's bank between the two
// instructions. That decision is exactly the one Verify would make on
// the moved solution (DESIGN.md §8), without re-verifying the whole
// solution per candidate; the compacted solution is kept only if it is
// smaller and passes the whole-solution Verify.
//
// The division of labor with the global dataflow framework: dead stores
// of program variables are an IR-level, cross-block property and are
// removed upstream (internal/opt's global dead-store elimination, and
// cover's liveness-driven pruning via Options.LiveOut fed by
// internal/dataflow). This package only ever touches compiler-generated
// spill slots ($spN) and schedule slack — artifacts of covering and
// allocation that no IR-level analysis can see.
package peephole

import (
	"strings"

	"aviv/internal/cover"
	"aviv/internal/isdl"
)

// Optimize returns an improved covering solution, or the input solution
// unchanged when no transformation helps.
func Optimize(sol *cover.Solution) *cover.Solution {
	best := sol
	if improved, ok := removeRedundantSpills(best); ok {
		best = improved
	}
	if improved, ok := compact(best); ok {
		best = improved
	}
	return best
}

// spillSlot reports whether a memory name is a compiler-generated spill
// slot rather than a program variable.
func spillSlot(name string) bool { return strings.HasPrefix(name, "$sp") }

// removeRedundantSpills tries to delete each spill-slot store together
// with its same-bank reloads, rewiring the reload consumers back to the
// original producer. The removal sticks only when the solution still
// verifies (register pressure included) with no size increase.
func removeRedundantSpills(sol *cover.Solution) (*cover.Solution, bool) {
	improvedAny := false
	cur := sol
	for {
		slots := spillSlots(cur)
		progress := false
		for _, slot := range slots {
			if trial, ok := tryRemoveSlot(cur, slot); ok {
				cur = trial
				progress = true
				improvedAny = true
				break // slot list is stale; rescan
			}
		}
		if !progress {
			break
		}
	}
	return cur, improvedAny
}

func spillSlots(sol *cover.Solution) []string {
	seen := make(map[string]bool)
	var out []string
	for _, instr := range sol.Instrs {
		for _, n := range instr {
			if n.Kind == cover.StoreNode && spillSlot(n.Var) && !seen[n.Var] {
				seen[n.Var] = true
				out = append(out, n.Var)
			}
		}
	}
	return out
}

// tryRemoveSlot attempts to eliminate one spill slot on a clone.
func tryRemoveSlot(sol *cover.Solution, slot string) (*cover.Solution, bool) {
	c := sol.Clone()
	var spill *cover.SNode
	var reloads []*cover.SNode
	for _, instr := range c.Instrs {
		for _, n := range instr {
			if n.Var != slot {
				continue
			}
			switch n.Kind {
			case cover.StoreNode:
				spill = n
			case cover.LoadNode:
				reloads = append(reloads, n)
			}
		}
	}
	if spill == nil || len(spill.Preds) != 1 {
		return nil, false
	}
	producer := spill.Preds[0]
	prodLoc, ok := producer.DefLoc()
	if !ok || prodLoc.Kind != isdl.LocUnit {
		return nil, false
	}
	// Same-bank reloads rewire to the original register; cross-bank
	// reloads become direct register-to-register moves (a spill through
	// memory was only ever needed for pressure, which Verify re-checks
	// below).
	removed := map[*cover.SNode]bool{spill: true}
	for _, r := range reloads {
		if r.Step.To == prodLoc {
			for _, w := range append([]*cover.SNode(nil), r.Succs...) {
				unlink(r, w)
				link(producer, w)
			}
			for _, p := range append([]*cover.SNode(nil), r.OrdPreds...) {
				unlinkOrd(p, r)
			}
			removed[r] = true
			continue
		}
		// Repurpose the reload in place as a move from the producer's
		// bank: same bus slot, same consumers, no memory round trip.
		paths := c.Machine.TransferPaths(prodLoc, r.Step.To)
		if len(paths) == 0 || len(paths[0]) != 1 {
			return nil, false // no direct path; keep the spill
		}
		r.Kind = cover.MoveNode
		r.Var = ""
		r.Step = paths[0][0]
		for _, p := range append([]*cover.SNode(nil), r.OrdPreds...) {
			unlinkOrd(p, r)
		}
		link(producer, r)
	}
	for _, s := range append([]*cover.SNode(nil), spill.OrdSuccs...) {
		unlinkOrd(spill, s)
	}
	unlink(producer, spill)
	c.Instrs = filterInstrs(c.Instrs, removed)
	c.SpillCount--
	if c.SpillCount < 0 {
		c.SpillCount = 0
	}
	if err := c.Verify(); err != nil {
		return nil, false
	}
	if c.Cost() > sol.Cost() {
		return nil, false
	}
	return c, true
}

// compact moves nodes into earlier instructions when dependences, bank
// pressure, and grouping legality allow, then drops emptied instructions.
// Each candidate move is decided by cover.MoveChecker, which checks only
// what the move can change; the whole-solution Verify gates the result.
func compact(sol *cover.Solution) (*cover.Solution, bool) {
	c := sol.Clone()
	chk := cover.NewMoveChecker(c)
	changed := false
	var nodes []*cover.SNode
	for {
		moved := false
		for i := 1; i < len(c.Instrs); i++ {
			nodes = append(nodes[:0], c.Instrs[i]...)
			for _, n := range nodes {
				if moveEarlier(chk, n, i) {
					moved = true
				} else if trialStart(chk, n) < i {
					c.Instrs[i] = toEnd(c.Instrs[i], n)
				}
			}
		}
		if !moved {
			break
		}
		changed = true
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

// moveEarlier moves n from instruction i into the earliest instruction
// that accepts it, reporting whether it moved.
func moveEarlier(chk *cover.MoveChecker, n *cover.SNode, i int) bool {
	for j := chk.Earliest(n); j < i; j++ {
		if chk.CanMove(n, j) {
			chk.Move(n, j)
			return true
		}
	}
	return false
}

// trialStart is one past n's latest predecessor, latencies aside. A node
// that had such a slot before its instruction and did not move goes to
// the end of its instruction: that is the order the Verify-per-move
// formulation (referenceCompact in the tests) leaves, because it
// re-appends the node after each rejected trial. Later passes visit
// nodes in instruction order, so keeping that order keeps the output
// node-for-node identical to it.
func trialStart(chk *cover.MoveChecker, n *cover.SNode) int {
	e := 0
	for _, p := range n.Preds {
		e = max(e, chk.Pos(p)+1)
	}
	for _, p := range n.OrdPreds {
		e = max(e, chk.Pos(p)+1)
	}
	return e
}

// toEnd moves x to the end of list in place.
func toEnd(list []*cover.SNode, x *cover.SNode) []*cover.SNode {
	for k, n := range list {
		if n == x {
			copy(list[k:], list[k+1:])
			list[len(list)-1] = x
			break
		}
	}
	return list
}

func filterInstrs(instrs [][]*cover.SNode, removed map[*cover.SNode]bool) [][]*cover.SNode {
	var out [][]*cover.SNode
	for _, instr := range instrs {
		var kept []*cover.SNode
		for _, n := range instr {
			if !removed[n] {
				kept = append(kept, n)
			}
		}
		if len(kept) > 0 {
			out = append(out, kept)
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

func link(from, to *cover.SNode) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

func unlink(from, to *cover.SNode) {
	from.Succs = del(from.Succs, to)
	to.Preds = del(to.Preds, from)
}

func unlinkOrd(from, to *cover.SNode) {
	from.OrdSuccs = del(from.OrdSuccs, to)
	to.OrdPreds = del(to.OrdPreds, from)
}

func del(list []*cover.SNode, x *cover.SNode) []*cover.SNode {
	var out []*cover.SNode
	for _, n := range list {
		if n != x {
			out = append(out, n)
		}
	}
	return out
}
