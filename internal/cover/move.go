package cover

import "aviv/internal/isdl"

// MoveChecker decides whether moving one scheduled node of a verified
// solution into an earlier instruction keeps the solution verifying. It
// makes exactly the decision Verify would make on the moved solution,
// but checks only the constraints the move can change (DESIGN.md §8):
//
//   - the node's value and ordering predecessors (the move shortens
//     the distance to them; its successors only get further away);
//   - unit exclusivity, bus widths and ISDL constraints of the target
//     instruction with the node added (legality is closed under taking
//     subsets, so the vacated instruction stays legal);
//   - register pressure of the node's bank over the window between the
//     target and the source instruction, the only instructions whose
//     live sets the move changes.
//
// The checker keeps the schedule position, the last-use instruction and
// the per-instruction bank pressure of the solution as it is moved, so
// CanMove allocates nothing and never formats an error. It is exact
// only for a solution that verifies when the checker is built and is
// then changed only through Move; the peephole pass still runs Verify
// on its final result.
type MoveChecker struct {
	s     *Solution
	index map[*SNode]int
	info  []moveInfo
	sizes []int // register count per tracked bank (0: unchecked)
	// live[k*len(sizes)+b] counts the values of bank b that hold a
	// register after instruction k issues: defined at or before k and
	// still awaiting a use after k.
	live []int

	slots []isdl.SlotRef // scratch for the target group's slots
	buses []string       // scratch for the target group's transfers
}

type moveInfo struct {
	pos int // instruction the node issues in
	lat int // result latency in cycles
	// bank is the index of the register bank the node's value occupies
	// while live, or -1 when it holds no register (a store, or a value
	// nothing scheduled reads).
	bank int
	// last is the instruction of the value's last scheduled use, where
	// its register is released; len(Instrs) for a value live past the
	// block, -1 for a node without scheduled uses.
	last int
}

// NewMoveChecker builds the checker's tables for s, which must verify.
func NewMoveChecker(s *Solution) *MoveChecker {
	c := &MoveChecker{s: s, index: make(map[*SNode]int)}
	banks := make(map[string]int)
	for k, instr := range s.Instrs {
		for _, n := range instr {
			c.index[n] = len(c.info)
			c.info = append(c.info, moveInfo{pos: k, lat: nodeLatency(s.Machine, n), bank: -1, last: -1})
		}
	}
	for _, instr := range s.Instrs {
		for _, n := range instr {
			c.initUses(n, banks)
		}
	}
	nb := len(c.sizes)
	c.live = make([]int, len(s.Instrs)*nb)
	for _, in := range c.info {
		if in.bank >= 0 {
			c.addLive(in.bank, in.pos, in.last, 1)
		}
	}
	return c
}

// initUses fills in n's last use and the bank its value occupies,
// numbering banks in first-definition order.
func (c *MoveChecker) initUses(n *SNode, banks map[string]int) {
	in := &c.info[c.index[n]]
	uses := 0
	for _, u := range n.Succs {
		if y, ok := c.index[u]; ok {
			uses++
			in.last = max(in.last, c.info[y].pos)
		}
	}
	if c.s.ExternalUses[n] > 0 {
		in.last = len(c.s.Instrs)
		uses++
	}
	loc, ok := n.DefLoc()
	if !ok || loc.Kind != isdl.LocUnit || uses == 0 {
		return
	}
	b, seen := banks[loc.Name]
	if !seen {
		b = len(c.sizes)
		banks[loc.Name] = b
		c.sizes = append(c.sizes, c.s.Machine.BankSize(loc.Name))
	}
	in.bank = b
}

// addLive adds d to bank b's pressure after each instruction in
// [from, to).
func (c *MoveChecker) addLive(b, from, to, d int) {
	nb := len(c.sizes)
	to = min(to, len(c.s.Instrs))
	for k := from; k < to; k++ {
		c.live[k*nb+b] += d
	}
}

// Pos returns the instruction n issues in.
func (c *MoveChecker) Pos(n *SNode) int { return c.info[c.index[n]].pos }

// Earliest returns the first instruction n may issue in as far as its
// predecessors go: after each value predecessor's result is ready, and
// strictly after each ordering predecessor.
func (c *MoveChecker) Earliest(n *SNode) int {
	e := 0
	for _, p := range n.Preds {
		in := c.info[c.index[p]]
		e = max(e, in.pos+in.lat)
	}
	for _, p := range n.OrdPreds {
		e = max(e, c.info[c.index[p]].pos+1)
	}
	return e
}

// CanMove reports whether moving n from its instruction to the earlier
// instruction j keeps the solution verifying.
func (c *MoveChecker) CanMove(n *SNode, j int) bool {
	x, ok := c.index[n]
	if !ok {
		return false
	}
	i := c.info[x].pos
	if j < 0 || j >= i || c.Earliest(n) > j {
		return false
	}
	return c.legalWith(c.s.Instrs[j], n) && c.pressureOK(n, x, i, j)
}

// legalWith reports whether instruction group plus n is a legal
// grouping, with each unit issuing at most one operation (synthetic
// immediates included, as Verify counts them).
func (c *MoveChecker) legalWith(group []*SNode, n *SNode) bool {
	if n.Kind == OpNode {
		for _, g := range group {
			if g.Kind == OpNode && g.Unit == n.Unit {
				return false
			}
		}
	}
	c.slots, c.buses = appendGroup(c.slots[:0], c.buses[:0], group)
	c.slots, c.buses = appendNode(c.slots, c.buses, n)
	return c.s.Machine.GroupLegal(c.slots, c.buses)
}

// pressureOK reports whether n's bank stays within its register count
// after each instruction in [j, i) once n issues at j. n's value now
// holds a register from j, and each predecessor whose last use was n
// may be released earlier; no other bank and no other instruction
// changes.
func (c *MoveChecker) pressureOK(n *SNode, x, i, j int) bool {
	b := c.info[x].bank
	if b < 0 || c.sizes[b] <= 0 {
		return true
	}
	nb := len(c.sizes)
	for k := j; k < i; k++ {
		live := c.live[k*nb+b] + 1
		for _, p := range n.Preds {
			y := c.index[p]
			if c.info[y].bank == b && c.releaseAfterMove(p, y, n, i, j) <= k {
				live--
			}
		}
		if live > c.sizes[b] {
			return false
		}
	}
	return true
}

// releaseAfterMove returns the instruction predecessor p (index y) is
// released in once its use n moves from instruction i to j.
func (c *MoveChecker) releaseAfterMove(p *SNode, y int, n *SNode, i, j int) int {
	if c.info[y].last != i {
		return c.info[y].last
	}
	last := j
	for _, u := range p.Succs {
		if u == n {
			continue
		}
		if z, ok := c.index[u]; ok {
			last = max(last, c.info[z].pos)
		}
	}
	return last
}

// Move moves n to the end of the earlier instruction j, keeping the
// order of the instruction it leaves, and updates the checker's
// tables. The caller has established CanMove(n, j).
func (c *MoveChecker) Move(n *SNode, j int) {
	x := c.index[n]
	i := c.info[x].pos
	src := c.s.Instrs[i]
	for k, m := range src {
		if m == n {
			c.s.Instrs[i] = append(src[:k], src[k+1:]...)
			break
		}
	}
	c.s.Instrs[j] = append(c.s.Instrs[j], n)
	if b := c.info[x].bank; b >= 0 {
		c.addLive(b, j, i, 1)
	}
	for _, p := range n.Preds {
		y := c.index[p]
		if last := c.releaseAfterMove(p, y, n, i, j); last != c.info[y].last {
			if b := c.info[y].bank; b >= 0 {
				c.addLive(b, last, c.info[y].last, -1)
			}
			c.info[y].last = last
		}
	}
	c.info[x].pos = j
}
