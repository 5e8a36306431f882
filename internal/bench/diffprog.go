package bench

import (
	"fmt"
	"strings"
)

// The differential corpus generator: seeded random mini-C programs for
// the harnesses that compare compiled code against the reference
// interpreter.

// dtGen is a deterministic LCG-driven mini-C program generator. Loops
// are only emitted in the canonical bounded form (fresh counter,
// strictly increasing, never touched in the body), so every generated
// program terminates.
type dtGen struct{ state uint64 }

func newDtGen(seed int64) *dtGen {
	return &dtGen{state: uint64(seed)*2654435761 + 99991}
}

func (g *dtGen) next(n int) int {
	g.state = g.state*6364136223846793005 + 1442695040888963407
	return int((g.state >> 33) % uint64(n))
}

func (g *dtGen) pick(vars []string) string { return vars[g.next(len(vars))] }

// expr generates an expression over the given variables. With bitwise
// set it draws from the full repertoire (+ - * & | ^ and small constant
// shifts); otherwise only + - * (the example architecture's ALU ops).
// Division and modulo are excluded: they trap on zero and the paper's
// machines mostly lack them.
func (g *dtGen) expr(depth int, vars []string, bitwise bool) string {
	if depth <= 0 || g.next(3) == 0 {
		if g.next(4) == 0 {
			return fmt.Sprintf("%d", g.next(19)-9)
		}
		return g.pick(vars)
	}
	l := g.expr(depth-1, vars, bitwise)
	r := g.expr(depth-1, vars, bitwise)
	ops := []string{"+", "-", "*"}
	if bitwise {
		ops = append(ops, "&", "|", "^")
		if g.next(5) == 0 {
			// Shifts only by a small constant, and only leftward on values
			// that stay modest: shift the variable, not a product.
			return fmt.Sprintf("(%s %s %d)", g.pick(vars), []string{"<<", ">>"}[g.next(2)], g.next(4))
		}
	}
	return fmt.Sprintf("(%s %s %s)", l, ops[g.next(len(ops))], r)
}

func (g *dtGen) cond(vars []string, bitwise bool) string {
	cmps := []string{"<", ">", "<=", ">=", "==", "!="}
	return fmt.Sprintf("%s %s %s",
		g.expr(1, vars, bitwise), cmps[g.next(len(cmps))], g.expr(1, vars, bitwise))
}

// stmts appends nStmts statements, registering any fresh variables in
// *vars so later statements can read them. nextVar and nextLoop number
// fresh value and loop-counter names.
func (g *dtGen) stmts(sb *strings.Builder, nStmts, depth int, vars *[]string, nextVar, nextLoop *int, bitwise bool) {
	for s := 0; s < nStmts; s++ {
		switch k := g.next(6); {
		case k <= 2 || depth <= 0: // assignment (the common case)
			var name string
			if g.next(2) == 0 && *nextVar < 8 {
				name = fmt.Sprintf("v%d", *nextVar)
				*nextVar++
			} else {
				// Loop counters (iN) may be read but never reassigned:
				// that is what guarantees every generated loop terminates.
				writable := make([]string, 0, len(*vars))
				for _, v := range *vars {
					if !strings.HasPrefix(v, "i") {
						writable = append(writable, v)
					}
				}
				name = g.pick(writable)
			}
			fmt.Fprintf(sb, "%s = %s;\n", name, g.expr(2, *vars, bitwise))
			if !hasVar(*vars, name) {
				*vars = append(*vars, name)
			}
		case k <= 4: // if / if-else
			fmt.Fprintf(sb, "if (%s) {\n", g.cond(*vars, bitwise))
			g.stmts(sb, 1+g.next(2), depth-1, vars, nextVar, nextLoop, bitwise)
			if g.next(2) == 0 {
				sb.WriteString("} else {\n")
				g.stmts(sb, 1+g.next(2), depth-1, vars, nextVar, nextLoop, bitwise)
			}
			sb.WriteString("}\n")
		default: // canonical bounded loop
			i := fmt.Sprintf("i%d", *nextLoop)
			*nextLoop++
			fmt.Fprintf(sb, "for (%s = 0; %s < %d; %s = %s + 1) {\n", i, i, 2+g.next(3), i, i)
			save := append([]string(nil), *vars...)
			withCounter := append(save, i)
			g.stmts(sb, 1+g.next(2), 0, &withCounter, nextVar, nextLoop, bitwise)
			sb.WriteString("}\n")
			// The body runs at least twice (bound >= 2), so variables it
			// assigns are defined afterwards — and so is the counter.
			*vars = withCounter
		}
	}
}

func hasVar(vars []string, name string) bool {
	for _, v := range vars {
		if v == name {
			return true
		}
	}
	return false
}

// DiffProgram returns program seed of the differential corpus and its
// initial memory. With bitwise set the program draws from the full
// operator repertoire (& | ^ and small constant shifts); otherwise only
// + - *, the example architecture's ALU ops. The differential, zoo,
// server, cache and peephole-oracle tests all compile seeds 0–49 of it.
func DiffProgram(seed int64, bitwise bool) (string, map[string]int64) {
	g := newDtGen(seed)
	vars := []string{"a", "b", "c", "d"}
	mem := map[string]int64{"a": 11, "b": -7, "c": 5, "d": 3}
	var sb strings.Builder
	nextVar, nextLoop := 0, 0
	g.stmts(&sb, 3+g.next(4), 2, &vars, &nextVar, &nextLoop, bitwise)
	return sb.String(), mem
}
