package main

import (
	"fmt"
	"sort"
	"strings"

	"aviv/internal/asm"
	"aviv/internal/ir"
	"aviv/internal/isdl"
	"aviv/internal/lang"
	"aviv/internal/sim"
)

// oracleBudget bounds the interpreter (block executions) and the
// simulator (cycles). The generated programs branch forward only, so
// both finish far below it.
const oracleBudget = 1_000_000

// oracle checks served programs against the reference interpreter run
// on the unoptimised IR of the request source — a path that shares no
// code with the optimiser, the covering engine or the cache tiers.
type oracle struct {
	m    *isdl.Machine
	mem  map[string]int64
	want map[string]map[string]int64 // by source
	// cycles memoizes checks that passed, by source and assembly: both
	// checks are deterministic, so a repeated pair needs no re-run.
	cycles map[[2]string]int
}

func newOracle(m *isdl.Machine, mem map[string]int64) *oracle {
	return &oracle{m: m, mem: mem, want: make(map[string]map[string]int64), cycles: make(map[[2]string]int)}
}

func (o *oracle) expected(src string) (map[string]int64, error) {
	if w, ok := o.want[src]; ok {
		return w, nil
	}
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	f, err := lang.Lower(prog, "main")
	if err != nil {
		return nil, err
	}
	w := copyMem(o.mem)
	if err := ir.EvalFunc(f, w, oracleBudget); err != nil {
		return nil, err
	}
	o.want[src] = w
	return w, nil
}

// check parses the served assembly, simulates it on the seeded memory
// and compares every memory cell with the interpreter's. It returns the
// simulated cycle count.
func (o *oracle) check(src, assembly string) (int, error) {
	if c, ok := o.cycles[[2]string{src, assembly}]; ok {
		return c, nil
	}
	want, err := o.expected(src)
	if err != nil {
		return 0, fmt.Errorf("reference: %w", err)
	}
	p, err := asm.ParseProgram(assembly, o.m)
	if err != nil {
		return 0, fmt.Errorf("parsing served assembly: %w", err)
	}
	got, cycles, err := sim.RunProgram(p, copyMem(o.mem), oracleBudget)
	if err != nil {
		return 0, fmt.Errorf("simulating served program: %w", err)
	}
	for _, v := range sortedKeys(want) {
		if got[v] != want[v] {
			return 0, fmt.Errorf("mem[%s] = %d, interpreter says %d", v, got[v], want[v])
		}
	}
	for _, v := range sortedKeys(got) {
		// Spill and transfer slots ($-prefixed) are the program's own
		// scratch memory; every other cell must be one the source writes.
		if _, ok := want[v]; !ok && !strings.HasPrefix(v, "$") {
			return 0, fmt.Errorf("served program writes mem[%s], the source does not", v)
		}
	}
	o.cycles[[2]string{src, assembly}] = cycles
	return cycles, nil
}

func copyMem(m map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
