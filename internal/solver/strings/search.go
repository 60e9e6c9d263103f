package strings

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/regex"
)

// search performs the bounded witness search: DFS over candidate
// assignments for string and boolean variables with defining-equation
// propagation and per-literal pruning, followed by arithmetic completion
// for the remaining integer/real variables. It never returns Unsat.
func (c *checker) search() (Status, eval.Model) {
	c.buildAlphabet()
	c.compileSlots()

	// Slots are numbered in sorted-name order, so candidates are built
	// (and their fuel spent) in variable-name order.
	var order []int
	for i, name := range c.names {
		if s := c.varSorts[name]; s == ast.SortString || s == ast.SortBool {
			order = append(order, i)
		}
	}
	cands := make([][]eval.Value, len(c.names))
	for _, v := range order {
		if c.varSorts[c.names[v]] == ast.SortBool {
			cands[v] = []eval.Value{eval.BoolV(false), eval.BoolV(true)}
		} else {
			cands[v] = c.stringCandidates(c.names[v])
		}
	}
	// Most-constrained-first ordering.
	sort.SliceStable(order, func(i, j int) bool {
		return len(cands[order[i]]) < len(cands[order[j]])
	})

	// Literals with no free variables never become "newly completed" by
	// an assignment below; verify them once up front.
	for i := range c.lits {
		if c.ready(c.litSlots[i]) && !c.litPasses(i) {
			return Unknown, nil
		}
	}

	// Injected hang defect: on wide search frontiers (the shape fused
	// formulas produce, with both ancestors' variables plus the fusion
	// variable in scope) the DFS "loops forever". Simulated by draining
	// the fuel meter: the observable signature — a deterministic
	// timeout — is the same, with no wall-clock cost.
	if len(order) >= 4 && c.defect("pf-strings-dfs-hang") {
		c.fuel.Drain()
		return Unknown, nil
	}

	nodes := c.lim.MaxNodes
	ok, model := c.dfs(order, cands, &nodes)
	if ok {
		return Sat, model
	}
	return Unknown, nil
}

// slotDef is a compiled defining equation v = rhs with rhs's free-
// variable slots.
type slotDef struct {
	rhs   eval.Compiled
	slots []int
}

// compileSlots gives every free variable a dense slot in sorted-name
// order and compiles each literal and defining-equation rhs once
// against that layout, so the DFS evaluates closures over the slot
// vector instead of walking terms under a name-keyed model.
func (c *checker) compileSlots() {
	c.names = make([]string, 0, len(c.varSorts))
	for name := range c.varSorts {
		c.names = append(c.names, name)
	}
	sort.Strings(c.names)
	index := make(map[string]int, len(c.names))
	for i, name := range c.names {
		index[name] = i
	}
	slot := func(name string) int {
		if i, ok := index[name]; ok {
			return i
		}
		return -1
	}
	slotsOf := func(t ast.Term) []int {
		var out []int
		for _, v := range ast.FreeVars(t) {
			out = append(out, index[v.Name])
		}
		return out
	}
	c.vals = make([]eval.Value, len(c.names))
	c.compiled = make([]eval.Compiled, len(c.lits))
	c.litSlots = make([][]int, len(c.lits))
	c.litsBySlot = make([][]int, len(c.names))
	for i, l := range c.lits {
		c.compiled[i] = eval.Compile(l, slot)
		c.litSlots[i] = slotsOf(l)
		for _, v := range c.litSlots[i] {
			c.litsBySlot[v] = append(c.litsBySlot[v], i)
		}
	}
	c.defs = make([][]slotDef, len(c.names))
	for i, name := range c.names {
		for _, rhs := range c.eqDefs[name] {
			c.defs[i] = append(c.defs[i], slotDef{rhs: eval.Compile(rhs, slot), slots: slotsOf(rhs)})
		}
	}
}

// buildAlphabet gathers a small alphabet sufficient for candidate
// construction: every byte in the problem's string literals and ground
// regexes, digits when integer conversions occur, and a fresh byte.
func (c *checker) buildAlphabet() {
	set := map[byte]bool{}
	needDigits := false
	for _, l := range c.lits {
		ast.Walk(l, func(t ast.Term) bool {
			switch n := t.(type) {
			case *ast.StrLit:
				for i := 0; i < len(n.V); i++ {
					set[n.V[i]] = true
				}
			case *ast.App:
				if n.Op == ast.OpStrToInt || n.Op == ast.OpStrFromInt {
					needDigits = true
				}
			}
			return true
		})
	}
	for _, rs := range c.pos {
		for _, r := range rs {
			for _, ch := range regex.RelevantChars(r) {
				set[ch] = true
			}
		}
	}
	if needDigits {
		set['0'] = true
		set['1'] = true
	}
	if len(set) == 0 {
		set['a'] = true
	}
	// One representative byte outside the set.
	for _, cand := range []byte{'~', '#', '@'} {
		if !set[cand] {
			set[cand] = true
			break
		}
	}
	out := make([]byte, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) > 10 {
		out = out[:10]
	}
	c.alphabet = out
}

// stringCandidates builds the ordered candidate list for a string
// variable: regex-guided members when a positive membership constrains
// the variable, otherwise shortlex strings over the alphabet, literal
// constants from the problem, and hint-length paddings. Candidates are
// filtered by negative memberships.
func (c *checker) stringCandidates(v string) []eval.Value {
	maxLen := c.lim.MaxLen
	var raw []string
	if rs := c.pos[v]; len(rs) > 0 {
		r := regex.Inter(rs...)
		raw = regex.EnumerateFuel(r, maxLen+2, c.lim.MaxCandidates, c.fuel, c.telem)
	} else {
		// Problem literals are strong candidates for equalities, and
		// decimal renderings of integer constants matter for str.to_int
		// constraints whose digits may be outside the alphabet. They go
		// first so the candidate cap never drops them.
		for _, l := range c.lits {
			ast.Walk(l, func(t ast.Term) bool {
				switch n := t.(type) {
				case *ast.StrLit:
					if len(n.V) <= maxLen+2 {
						raw = append(raw, n.V)
					}
				case *ast.IntLit:
					if n.V.Sign() >= 0 && len(n.V.String()) <= maxLen+2 {
						raw = append(raw, n.V.String())
					}
				}
				return true
			})
		}
		raw = append(raw, c.shortlex(maxLen, c.lim.MaxCandidates)...)
		// Hint-length paddings keep long-but-feasible lengths in reach.
		if h, ok := c.lenHint[v]; ok && h > 0 && h <= maxLen+2 {
			for _, ch := range c.alphabet {
				pad := make([]byte, h)
				for i := range pad {
					pad[i] = ch
				}
				raw = append(raw, string(pad))
			}
		}
	}

	seen := map[string]bool{}
	var out []eval.Value
	hint, hasHint := c.lenHint[v]
	// Prefer hint-length candidates by stable partition.
	if hasHint {
		sort.SliceStable(raw, func(i, j int) bool {
			di := abs(len(raw[i]) - hint)
			dj := abs(len(raw[j]) - hint)
			return di < dj
		})
	}
	for _, s := range raw {
		if seen[s] {
			continue
		}
		seen[s] = true
		if c.violatesNeg(v, s) {
			continue
		}
		out = append(out, eval.StrV(s))
		if len(out) >= c.lim.MaxCandidates {
			break
		}
	}
	return out
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func (c *checker) violatesNeg(v, s string) bool {
	for _, r := range c.neg[v] {
		if regex.MatchFuel(r, s, c.fuel, c.telem) {
			return true
		}
	}
	return false
}

// shortlex enumerates strings over the alphabet in shortlex order.
func (c *checker) shortlex(maxLen, limit int) []string {
	out := []string{""}
	frontier := []string{""}
	for l := 1; l <= maxLen && len(out) < limit; l++ {
		var next []string
		for _, p := range frontier {
			for _, ch := range c.alphabet {
				s := p + string(ch)
				out = append(out, s)
				next = append(next, s)
				if len(out) >= limit {
					return out
				}
			}
		}
		frontier = next
	}
	return out
}

func (c *checker) dfs(order []int, cands [][]eval.Value, nodes *int) (bool, eval.Model) {
	if *nodes <= 0 || !c.fuel.Spend(1) {
		return false, nil
	}
	c.telem.Inc(cDFSSteps)
	*nodes--

	// Propagation: a variable whose defining equation is ground under
	// the partial model is forced; assign it and recurse without
	// branching.
	for _, v := range order {
		if c.vals[v] != nil {
			continue
		}
		for _, d := range c.defs[v] {
			if !c.ready(d.slots) {
				continue
			}
			val, err := d.rhs(c.vals)
			if err != nil {
				continue
			}
			if sv, ok := val.(eval.StrV); ok && c.violatesNeg(c.names[v], string(sv)) {
				return false, nil
			}
			// Assign in place and undo on failure: the search builds a
			// model map only when a full assignment reaches
			// completeArith, not at every node.
			c.vals[v] = val
			if !c.litsConsistentAfter(v) {
				c.vals[v] = nil
				return false, nil
			}
			ok, model := c.dfs(order, cands, nodes)
			if !ok {
				c.vals[v] = nil
			}
			return ok, model
		}
	}

	// Branch on the next unassigned variable.
	pick := -1
	for _, v := range order {
		if c.vals[v] == nil {
			pick = v
			break
		}
	}
	if pick < 0 {
		m := eval.Model{}
		for i, v := range c.vals {
			if v != nil {
				m[c.names[i]] = v
			}
		}
		return c.completeArith(m)
	}
	for _, val := range cands[pick] {
		c.vals[pick] = val
		if c.litsConsistentAfter(pick) {
			if ok, model := c.dfs(order, cands, nodes); ok {
				return true, model
			}
		}
		c.vals[pick] = nil
		if *nodes <= 0 {
			return false, nil
		}
	}
	return false, nil
}

// litsConsistentAfter evaluates only the literals completed by the
// assignment of slot v: a literal needs checking exactly when its last
// free variable gets a value, so the DFS evaluates each literal once per
// path instead of re-evaluating every ready literal at every node.
func (c *checker) litsConsistentAfter(v int) bool {
	for _, i := range c.litsBySlot[v] {
		if c.ready(c.litSlots[i]) && !c.litPasses(i) {
			return false
		}
	}
	return true
}

// ready reports whether every listed slot is assigned.
func (c *checker) ready(slots []int) bool {
	for _, v := range slots {
		if c.vals[v] == nil {
			return false
		}
	}
	return true
}

// litPasses evaluates literal i under the slot vector; evaluation
// errors count as failures, matching the search's pruning rule.
func (c *checker) litPasses(i int) bool {
	v, err := c.compiled[i](c.vals)
	b, ok := v.(eval.BoolV)
	return err == nil && ok && bool(b)
}
