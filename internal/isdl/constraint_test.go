package isdl

import (
	"math/rand"
	"testing"

	"aviv/internal/ir"
)

// groupLegalMachines are the machines whose slot and bus repertoires the
// GroupLegal property tests draw from: the paper's example, one with an
// explicit ISDL constraint, and a clustered machine with several buses.
func groupLegalMachines() []*Machine {
	return []*Machine{ExampleArch(4), WideDSP(4), ClusteredVLIW(4), DualMemDSP(4)}
}

// randomGroup draws slots and transfers from the machine's own units,
// ops and buses, plus occasional unknown names, so both legal and
// illegal groups (every CheckGroup reason) come up.
func randomGroup(rng *rand.Rand, m *Machine) ([]SlotRef, []string) {
	var slots []SlotRef
	for k := rng.Intn(5); k > 0; k-- {
		unit := "U9"
		if rng.Intn(8) > 0 {
			unit = m.Units[rng.Intn(len(m.Units))].Name
		}
		op := ir.Op(1 + rng.Intn(int(ir.OpCmpEQ)))
		if u := m.Unit(unit); u != nil && rng.Intn(3) > 0 {
			ops := u.OpList()
			op = ops[rng.Intn(len(ops))]
		}
		slots = append(slots, SlotRef{Unit: unit, Op: op})
	}
	var buses []string
	for k := rng.Intn(5); k > 0; k-- {
		bus := "ZZ"
		if rng.Intn(8) > 0 && len(m.Buses) > 0 {
			bus = m.Buses[rng.Intn(len(m.Buses))].Name
		}
		buses = append(buses, bus)
	}
	return slots, buses
}

func busCounts(buses []string) map[string]int {
	use := make(map[string]int)
	for _, b := range buses {
		use[b]++
	}
	return use
}

// TestGroupLegalMatchesCheckGroup pins GroupLegal to CheckGroup's
// decision on random groups, and checks that it allocates nothing.
func TestGroupLegalMatchesCheckGroup(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	legal := 0
	for _, m := range groupLegalMachines() {
		for trial := 0; trial < 3000; trial++ {
			slots, buses := randomGroup(rng, m)
			want := m.CheckGroup(slots, busCounts(buses))
			if got := m.GroupLegal(slots, buses); got != (want == nil) {
				t.Fatalf("%s: GroupLegal(%v, %v) = %v, CheckGroup = %v", m.Name, slots, buses, got, want)
			}
			if want == nil {
				legal++
			}
		}
		slots, buses := randomGroup(rng, m)
		if allocs := testing.AllocsPerRun(100, func() { m.GroupLegal(slots, buses) }); allocs != 0 {
			t.Errorf("%s: GroupLegal allocates %.0f times per call", m.Name, allocs)
		}
	}
	if legal == 0 {
		t.Fatal("no legal group drawn; the property was never exercised on the accept side")
	}
}

// TestGroupLegalSubsetClosed checks the property the peephole move check
// relies on: removing any one slot or transfer from a legal group keeps
// it legal under both GroupLegal and CheckGroup.
func TestGroupLegalSubsetClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range groupLegalMachines() {
		for trial := 0; trial < 3000; trial++ {
			slots, buses := randomGroup(rng, m)
			if !m.GroupLegal(slots, buses) {
				continue
			}
			for k := range slots {
				sub := append(append([]SlotRef(nil), slots[:k]...), slots[k+1:]...)
				if !m.GroupLegal(sub, buses) || m.CheckGroup(sub, busCounts(buses)) != nil {
					t.Fatalf("%s: dropping slot %v from legal %v %v made it illegal", m.Name, slots[k], slots, buses)
				}
			}
			for k := range buses {
				sub := append(append([]string(nil), buses[:k]...), buses[k+1:]...)
				if !m.GroupLegal(slots, sub) || m.CheckGroup(slots, busCounts(sub)) != nil {
					t.Fatalf("%s: dropping transfer on %s from legal %v %v made it illegal", m.Name, buses[k], slots, buses)
				}
			}
		}
	}
}
