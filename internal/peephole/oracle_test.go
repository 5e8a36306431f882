package peephole_test

import (
	"fmt"
	"sync"
	"testing"

	"aviv"
	"aviv/internal/bench"
	"aviv/internal/cover"
	"aviv/internal/isdl"
	"aviv/internal/peephole"
	"aviv/internal/zoo"
)

// The compaction oracle: over the differential corpus, on the example
// machines and one zoo machine per class, the local move check must make
// every decision the whole-solution Verify makes, and Optimize must
// produce the reference's solution node for node.

// oracleZooSeed is the zoo seed of the shipped differential matrix.
const oracleZooSeed = 1

var zooMachines = sync.OnceValues(func() ([]*zoo.Entry, error) {
	return zoo.Generate(oracleZooSeed, len(zoo.Classes()))
})

// oracleMachine is one target of the oracle matrix; bitwise selects
// whether it takes the bitwise half of the corpus.
type oracleMachine struct {
	name    string
	m       *isdl.Machine
	bitwise func(seed int64) bool
}

func oracleMachines(t testing.TB) []oracleMachine {
	entries, err := zooMachines()
	if err != nil {
		t.Fatalf("zoo: %v", err)
	}
	even := func(seed int64) bool { return false }
	odd := func(seed int64) bool { return seed%2 == 1 }
	ms := []oracleMachine{
		{"example4", isdl.ExampleArchFull(4), even},
		{"example2", isdl.ExampleArchFull(2), even},
		{"dsp4", isdl.SingleIssueDSP(4), func(int64) bool { return true }},
	}
	for _, e := range entries {
		ms = append(ms, oracleMachine{fmt.Sprintf("zoo%d_%s", e.Index, e.Class), e.M, odd})
	}
	return ms
}

// preCoverings compiles src on m with the peephole pass off and returns
// every block's covering as the pass would receive it.
func preCoverings(t testing.TB, src string, m *isdl.Machine) []*cover.Solution {
	t.Helper()
	opts := aviv.DefaultOptions()
	opts.Peephole = false
	opts.Parallelism = 1
	res, err := aviv.CompileSource(src, m, 1, opts)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	sols := make([]*cover.Solution, len(res.Blocks))
	for i, b := range res.Blocks {
		sols[i] = b.Solution
	}
	return sols
}

// sameSchedule reports where two solutions' schedules first differ, by
// node ID (a clone keeps its original's IDs), or "" when they agree node
// for node.
func sameSchedule(got, want *cover.Solution) string {
	if got.Cost() != want.Cost() || got.SpillCount != want.SpillCount {
		return fmt.Sprintf("cost/spills %d/%d, reference %d/%d", got.Cost(), got.SpillCount, want.Cost(), want.SpillCount)
	}
	for i := range got.Instrs {
		g, w := got.Instrs[i], want.Instrs[i]
		if len(g) != len(w) {
			return fmt.Sprintf("instr %d has %d nodes, reference %d", i, len(g), len(w))
		}
		for k := range g {
			if g[k].ID != w[k].ID || g[k].Kind != w[k].Kind {
				return fmt.Sprintf("instr %d slot %d is %s, reference %s", i, k, g[k], w[k])
			}
		}
	}
	return ""
}

// movedVerifies applies the move of the node at c.Instrs[i][k] to
// instruction j on a clone and runs the whole-solution Verify.
func movedVerifies(c *cover.Solution, i, k, j int) bool {
	m := c.Clone()
	n := m.Instrs[i][k]
	m.Instrs[i] = append(m.Instrs[i][:k:k], m.Instrs[i][k+1:]...)
	m.Instrs[j] = append(m.Instrs[j], n)
	return m.Verify() == nil
}

// decisionStats counts the candidate moves a lockstep run compared.
type decisionStats struct{ accepted, rejected int }

// checkDecisions runs compaction on sol with the incremental move check,
// trying every slot the reference tries (from one past the latest
// predecessor, latencies aside), and requires each CanMove decision to
// equal Verify on the moved clone.
func checkDecisions(t testing.TB, label string, sol *cover.Solution, st *decisionStats) {
	t.Helper()
	c := sol.Clone()
	chk := cover.NewMoveChecker(c)
	var nodes []*cover.SNode
	for moved := true; moved; {
		moved = false
		for i := 1; i < len(c.Instrs); i++ {
			nodes = append(nodes[:0], c.Instrs[i]...)
			for _, n := range nodes {
				start := peephole.TrialStart(chk, n)
				took := false
				for j := start; j < i; j++ {
					k := indexOf(c.Instrs[i], n)
					got, want := chk.CanMove(n, j), movedVerifies(c, i, k, j)
					if got != want {
						t.Fatalf("%s: move of %s from %d to %d: check says %v, Verify says %v\n%s",
							label, n, i, j, got, want, c)
					}
					if got {
						st.accepted++
						chk.Move(n, j)
						took, moved = true, true
						break
					}
					st.rejected++
				}
				if !took && start < i {
					c.Instrs[i] = peephole.ToEnd(c.Instrs[i], n)
				}
			}
		}
	}
}

func indexOf(list []*cover.SNode, x *cover.SNode) int {
	for k, n := range list {
		if n == x {
			return k
		}
	}
	return -1
}

// checkCovering is the per-covering oracle: Optimize matches the
// reference node for node and verifies, and every candidate decision of
// the compaction the pass runs matches Verify.
func checkCovering(t testing.TB, label string, sol *cover.Solution, st *decisionStats) {
	t.Helper()
	got := peephole.Optimize(sol)
	if err := got.Verify(); err != nil {
		t.Fatalf("%s: optimized solution does not verify: %v\n%s", label, err, got)
	}
	if diff := sameSchedule(got, referenceOptimize(sol)); diff != "" {
		t.Fatalf("%s: Optimize differs from the Verify-per-move reference: %s\ninput:\n%s", label, diff, sol)
	}
	in := sol
	if improved, ok := peephole.RemoveRedundantSpills(sol); ok {
		in = improved
	}
	checkDecisions(t, label, in, st)
}

// TestCompactMatchesReference is the oracle table: every covering of the
// 50-program difftest corpus on each oracle machine.
func TestCompactMatchesReference(t *testing.T) {
	step := int64(1)
	if testing.Short() {
		step = 5
	}
	var total decisionStats
	for _, om := range oracleMachines(t) {
		t.Run(om.name, func(t *testing.T) {
			var st decisionStats
			for seed := int64(0); seed < 50; seed += step {
				src, _ := bench.DiffProgram(seed, om.bitwise(seed))
				for b, sol := range preCoverings(t, src, om.m) {
					checkCovering(t, fmt.Sprintf("%s/prog%d/block%d", om.name, seed, b), sol, &st)
				}
			}
			t.Logf("%d moves accepted, %d rejected", st.accepted, st.rejected)
			total.accepted += st.accepted
			total.rejected += st.rejected
		})
	}
	if total.accepted == 0 || total.rejected == 0 {
		t.Fatalf("oracle exercised %d accepted and %d rejected moves; both sides must occur", total.accepted, total.rejected)
	}
}

// groupSlots renders an instruction group the way the covering does for
// the ISDL legality check: a slot per computation, a bus per transfer.
func groupSlots(group []*cover.SNode) ([]isdl.SlotRef, []string) {
	var slots []isdl.SlotRef
	var buses []string
	for _, n := range group {
		switch {
		case n.Kind != cover.OpNode:
			buses = append(buses, n.Step.Bus)
		case n.Op.IsComputation():
			slots = append(slots, isdl.SlotRef{Unit: n.Unit, Op: n.Op})
		}
	}
	return slots, buses
}

func busUse(buses []string) map[string]int {
	use := make(map[string]int)
	for _, b := range buses {
		use[b]++
	}
	return use
}

// TestGroupLegalitySubsetClosed pins the property the move check relies
// on to skip the vacated instruction: on every zoo class, removing any
// one node from any legal instruction of the corpus coverings (before
// and after the peephole pass) leaves a group that is still legal under
// both GroupLegal and CheckGroup.
func TestGroupLegalitySubsetClosed(t *testing.T) {
	entries, err := zooMachines()
	if err != nil {
		t.Fatal(err)
	}
	step := int64(1)
	if testing.Short() {
		step = 5
	}
	for _, e := range entries {
		groups := 0
		for seed := int64(0); seed < 50; seed += step {
			src, _ := bench.DiffProgram(seed, seed%2 == 1)
			for _, sol := range preCoverings(t, src, e.M) {
				for _, s := range []*cover.Solution{sol, peephole.Optimize(sol)} {
					for _, instr := range s.Instrs {
						slots, buses := groupSlots(instr)
						if !e.M.GroupLegal(slots, buses) || e.M.CheckGroup(slots, busUse(buses)) != nil {
							t.Fatalf("%s: scheduled instruction %v is illegal", e.Class, instr)
						}
						groups++
						for k := range instr {
							sub := append(append([]*cover.SNode(nil), instr[:k]...), instr[k+1:]...)
							slots, buses := groupSlots(sub)
							if !e.M.GroupLegal(slots, buses) {
								t.Fatalf("%s: GroupLegal rejects %v minus %s", e.Class, instr, instr[k])
							}
							if err := e.M.CheckGroup(slots, busUse(buses)); err != nil {
								t.Fatalf("%s: CheckGroup rejects %v minus %s: %v", e.Class, instr, instr[k], err)
							}
						}
					}
				}
			}
		}
		if groups == 0 {
			t.Errorf("%s: no instruction groups checked", e.Class)
		}
	}
}

// FuzzCompactMatchesReference drives the oracle from a corpus seed and a
// zoo class index: every block covering of the program, compiled on the
// class's zoo machine, must compact exactly as the Verify-per-move
// reference does, with every candidate decision equal to Verify's.
func FuzzCompactMatchesReference(f *testing.F) {
	for seed := int64(0); seed < 9; seed++ {
		f.Add(seed, uint8(seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, class uint8) {
		entries, err := zooMachines()
		if err != nil {
			t.Fatal(err)
		}
		e := entries[int(class)%len(entries)]
		src, _ := bench.DiffProgram(seed, seed%2 != 0)
		var st decisionStats
		for b, sol := range preCoverings(t, src, e.M) {
			checkCovering(t, fmt.Sprintf("seed %d/%s/block%d", seed, e.Class, b), sol, &st)
		}
	})
}
