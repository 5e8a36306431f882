package isdl

import "fmt"

// GroupError explains why a proposed operation grouping is not a legal
// instruction on the machine.
type GroupError struct {
	Reason string
}

func (e *GroupError) Error() string { return "isdl: illegal grouping: " + e.Reason }

// CheckGroup decides whether one VLIW instruction containing the given
// computation slots and per-bus transfer counts is legal (Sec. IV-C.3):
//
//   - each functional unit may be used at most once,
//   - each bus carries at most its width in transfers, and
//   - no explicit Constraint is fully matched by the slots.
//
// It returns nil when legal, or a *GroupError describing the violation.
// GroupLegal makes the same decision without building the explanation.
func (m *Machine) CheckGroup(slots []SlotRef, busUse map[string]int) error {
	seen := make(map[string]bool, len(slots))
	for _, s := range slots {
		u := m.Unit(s.Unit)
		if u == nil {
			return &GroupError{Reason: fmt.Sprintf("unknown unit %s", s.Unit)}
		}
		if !u.Can(s.Op) {
			return &GroupError{Reason: fmt.Sprintf("unit %s cannot perform %s", s.Unit, s.Op)}
		}
		if seen[s.Unit] {
			return &GroupError{Reason: fmt.Sprintf("unit %s used twice", s.Unit)}
		}
		seen[s.Unit] = true
	}
	for bus, n := range busUse {
		b := m.Bus(bus)
		if b == nil {
			return &GroupError{Reason: fmt.Sprintf("unknown bus %s", bus)}
		}
		if n > b.Width {
			return &GroupError{Reason: fmt.Sprintf("bus %s carries %d transfers, width %d", bus, n, b.Width)}
		}
	}
	for _, c := range m.Constraints {
		if matchesConstraint(slots, c) {
			return &GroupError{Reason: fmt.Sprintf("violates constraint %s", c)}
		}
	}
	return nil
}

// GroupLegal reports whether one VLIW instruction containing the given
// computation slots and transfers is legal: CheckGroup(slots, busUse)
// == nil, where busUse counts the entries of buses (one bus name per
// transfer). It allocates nothing and formats nothing, because the
// covering search and the peephole pass ask it for every candidate
// grouping; instruction groups are small, so the repeated-unit and
// per-bus counts are quadratic scans instead of maps.
//
// Legality is closed under taking subsets: dropping a slot or a
// transfer from a legal group leaves it legal, since every rule bounds
// a use from above or forbids a full set of slots.
func (m *Machine) GroupLegal(slots []SlotRef, buses []string) bool {
	for i, s := range slots {
		u := m.Unit(s.Unit)
		if u == nil || !u.Can(s.Op) {
			return false
		}
		for _, t := range slots[:i] {
			if t.Unit == s.Unit {
				return false
			}
		}
	}
	for i, bus := range buses {
		if seenBefore(buses[:i], bus) {
			continue
		}
		b := m.Bus(bus)
		if b == nil {
			return false
		}
		n := 1
		for _, other := range buses[i+1:] {
			if other == bus {
				n++
			}
		}
		if n > b.Width {
			return false
		}
	}
	for _, c := range m.Constraints {
		if matchesConstraint(slots, c) {
			return false
		}
	}
	return true
}

func seenBefore(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

func matchesConstraint(slots []SlotRef, c Constraint) bool {
	for _, want := range c.Forbid {
		found := false
		for _, s := range slots {
			if s == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
