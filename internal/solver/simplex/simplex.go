package simplex

import (
	"fmt"
	"math/big"
	"sort"
	"strconv"

	"repro/internal/fuel"
	"repro/internal/telemetry"
)

// cPivots counts simplex pivot iterations — one increment per fuel
// unit spent in the Check loop.
var cPivots = telemetry.NewCounter("yy_simplex_pivots_total", "simplex pivot iterations")

// Tableau warm-start counters: a hit means an asserted linear
// combination found its slack variable — and that variable's row in
// the tableau — already in place from an earlier assertion on the same
// instance, so the row construction and substitution work is skipped
// entirely. Both increment inside slackFor, which runs at
// deterministic points of the assertion sequence.
var (
	cTableauHits   = telemetry.NewCounter("yy_tableau_warm_hits_total", "simplex atom assertions that reused an existing tableau row")
	cTableauMisses = telemetry.NewCounter("yy_tableau_warm_misses_total", "simplex atom assertions that built a fresh tableau row")
)

// Solver is an exact simplex instance. Build one per theory check:
// allocate problem variables, assert bounds on variables or on linear
// combinations, then call Check.
type Solver struct {
	n      int   // total variables (problem + slack)
	lower  []Num // per var; hasLower[i] guards
	upper  []Num
	hasLo  []bool
	hasHi  []bool
	value  []Num
	rows   map[int]map[int]*big.Rat // basic var -> (nonbasic var -> coeff)
	basic  map[int]bool
	slacks map[string]int // normalized combo key -> slack var

	// MaxPivots bounds the pivoting loop; exceeding it reports an
	// (extremely unlikely with Bland's rule) resource error.
	MaxPivots int

	// Fuel is the unified deadline shared with the other engines: one
	// unit is spent per pivot-loop iteration, and exhaustion surfaces
	// as the same resource error as MaxPivots. Nil means unlimited.
	Fuel *fuel.Meter

	// Telem records pivot iterations into the owner's tracker. Nil
	// records nothing.
	Telem *telemetry.Tracker
}

// New returns an empty solver.
func New() *Solver {
	return &Solver{
		rows:      map[int]map[int]*big.Rat{},
		basic:     map[int]bool{},
		slacks:    map[string]int{},
		MaxPivots: 100000,
	}
}

// NewVar allocates a problem variable and returns its index.
func (s *Solver) NewVar() int {
	i := s.n
	s.n++
	s.lower = append(s.lower, Zero())
	s.upper = append(s.upper, Zero())
	s.hasLo = append(s.hasLo, false)
	s.hasHi = append(s.hasHi, false)
	s.value = append(s.value, Zero())
	return i
}

// comboKey builds a canonical key for a linear combination.
func comboKey(coeffs map[int]*big.Rat) string {
	idxs := make([]int, 0, len(coeffs))
	for v, c := range coeffs {
		if c.Sign() != 0 {
			idxs = append(idxs, v)
		}
	}
	sort.Ints(idxs)
	buf := make([]byte, 0, 16*len(idxs))
	for _, v := range idxs {
		c := coeffs[v]
		buf = strconv.AppendInt(buf, int64(v), 10)
		buf = append(buf, ':')
		buf = c.Num().Append(buf, 10)
		buf = append(buf, '/')
		buf = c.Denom().Append(buf, 10)
		buf = append(buf, ';')
	}
	return string(buf)
}

// slackFor returns (creating if needed) the slack variable constrained
// to equal the given linear combination of problem variables.
func (s *Solver) slackFor(coeffs map[int]*big.Rat) int {
	key := comboKey(coeffs)
	if v, ok := s.slacks[key]; ok {
		s.Telem.Inc(cTableauHits)
		return v
	}
	s.Telem.Inc(cTableauMisses)
	sl := s.NewVar()
	row := map[int]*big.Rat{}
	val := Zero()
	for v, c := range coeffs {
		if c.Sign() == 0 {
			continue
		}
		cc := new(big.Rat).Set(c)
		if s.basic[v] {
			// Substitute the basic variable's row.
			for w, wc := range s.rows[v] {
				addCoeff(row, w, new(big.Rat).Mul(cc, wc))
			}
		} else {
			addCoeff(row, v, cc)
		}
		val = val.Add(s.value[v].ScaleRat(cc))
	}
	s.rows[sl] = row
	s.basic[sl] = true
	s.value[sl] = val
	s.slacks[key] = sl
	return sl
}

func addCoeff(row map[int]*big.Rat, v int, c *big.Rat) {
	if prev, ok := row[v]; ok {
		prev.Add(prev, c)
		if prev.Sign() == 0 {
			delete(row, v)
		}
	} else if c.Sign() != 0 {
		row[v] = c
	}
}

// Op is a bound relation for AssertAtom.
type Op int8

const (
	Le Op = iota // ≤
	Lt           // <
	Ge           // ≥
	Gt           // >
	Eq           // =
)

// AssertAtom asserts coeffs·x ⋈ c. It returns false on an immediately
// detected bound conflict (the conjunction is unsatisfiable).
func (s *Solver) AssertAtom(coeffs map[int]*big.Rat, op Op, c *big.Rat) bool {
	// Constant combination: decide immediately.
	nonzero := false
	for _, co := range coeffs {
		if co.Sign() != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		z := new(big.Rat)
		ok := false
		switch op {
		case Le:
			ok = z.Cmp(c) <= 0
		case Lt:
			ok = z.Cmp(c) < 0
		case Ge:
			ok = z.Cmp(c) >= 0
		case Gt:
			ok = z.Cmp(c) > 0
		case Eq:
			ok = z.Cmp(c) == 0
		}
		return ok
	}
	v := s.slackFor(coeffs)
	switch op {
	case Le:
		return s.assertUpper(v, Rat(c))
	case Lt:
		return s.assertUpper(v, RatDelta(c, -1))
	case Ge:
		return s.assertLower(v, Rat(c))
	case Gt:
		return s.assertLower(v, RatDelta(c, 1))
	case Eq:
		return s.assertLower(v, Rat(c)) && s.assertUpper(v, Rat(c))
	}
	return false
}

// AssertVarBound asserts a bound directly on a problem variable.
func (s *Solver) AssertVarBound(v int, op Op, c *big.Rat) bool {
	return s.AssertAtom(map[int]*big.Rat{v: big.NewRat(1, 1)}, op, c)
}

func (s *Solver) assertUpper(v int, b Num) bool {
	if s.hasHi[v] && s.upper[v].Cmp(b) <= 0 {
		return true // no tightening
	}
	if s.hasLo[v] && s.lower[v].Cmp(b) > 0 {
		return false // conflict with lower bound
	}
	s.upper[v] = b
	s.hasHi[v] = true
	if !s.basic[v] && s.value[v].Cmp(b) > 0 {
		s.update(v, b)
	}
	return true
}

func (s *Solver) assertLower(v int, b Num) bool {
	if s.hasLo[v] && s.lower[v].Cmp(b) >= 0 {
		return true
	}
	if s.hasHi[v] && s.upper[v].Cmp(b) < 0 {
		return false
	}
	s.lower[v] = b
	s.hasLo[v] = true
	if !s.basic[v] && s.value[v].Cmp(b) < 0 {
		s.update(v, b)
	}
	return true
}

// update sets nonbasic variable v to val and adjusts all basic values.
func (s *Solver) update(v int, val Num) {
	delta := val.Sub(s.value[v])
	for b, row := range s.rows {
		if c, ok := row[v]; ok {
			s.value[b] = s.value[b].Add(delta.ScaleRat(c))
		}
	}
	s.value[v] = val
}

// pivotAndUpdate pivots basic bi with nonbasic nj and sets bi to val.
func (s *Solver) pivotAndUpdate(bi, nj int, val Num) {
	row := s.rows[bi]
	aij := row[nj]
	theta := val.Sub(s.value[bi]).ScaleRat(new(big.Rat).Inv(aij))
	s.value[bi] = val
	s.value[nj] = s.value[nj].Add(theta)
	for b, r := range s.rows {
		if b == bi {
			continue
		}
		if c, ok := r[nj]; ok {
			s.value[b] = s.value[b].Add(theta.ScaleRat(c))
		}
	}
	s.pivot(bi, nj)
}

// pivot makes nj basic in place of bi.
func (s *Solver) pivot(bi, nj int) {
	row := s.rows[bi]
	aij := row[nj]
	delete(s.rows, bi)
	delete(s.basic, bi)

	// nj = (bi - sum_{k≠j} a_ik x_k) / a_ij
	newRow := map[int]*big.Rat{}
	inv := new(big.Rat).Inv(aij)
	newRow[bi] = new(big.Rat).Set(inv)
	for k, c := range row {
		if k == nj {
			continue
		}
		newRow[k] = new(big.Rat).Neg(new(big.Rat).Mul(c, inv))
	}
	s.rows[nj] = newRow
	s.basic[nj] = true

	// Substitute nj in all other rows.
	for b, r := range s.rows {
		if b == nj {
			continue
		}
		if c, ok := r[nj]; ok {
			delete(r, nj)
			for k, nc := range newRow {
				addCoeff(r, k, new(big.Rat).Mul(c, nc))
			}
		}
	}
}

// Check runs the simplex main loop. It returns true if the asserted
// bounds are satisfiable (and leaves a satisfying assignment in place),
// false if unsatisfiable. An error is returned only on pivot-budget
// exhaustion.
func (s *Solver) Check() (bool, error) {
	for pivots := 0; ; pivots++ {
		if pivots > s.MaxPivots {
			return false, fmt.Errorf("simplex: pivot budget exhausted")
		}
		if !s.Fuel.Spend(1) {
			return false, fmt.Errorf("simplex: fuel exhausted")
		}
		s.Telem.Inc(cPivots)
		// Bland's rule: smallest violating basic variable.
		bi := -1
		below := false
		for v := 0; v < s.n; v++ {
			if !s.basic[v] {
				continue
			}
			if s.hasLo[v] && s.value[v].Cmp(s.lower[v]) < 0 {
				bi = v
				below = true
				break
			}
			if s.hasHi[v] && s.value[v].Cmp(s.upper[v]) > 0 {
				bi = v
				below = false
				break
			}
		}
		if bi == -1 {
			return true, nil
		}
		row := s.rows[bi]
		// Smallest suitable nonbasic variable.
		nj := -1
		cols := make([]int, 0, len(row))
		for v := range row {
			cols = append(cols, v)
		}
		sort.Ints(cols)
		for _, v := range cols {
			c := row[v]
			if below {
				// Need to increase bi: increase v if c>0 and v below
				// upper; decrease v if c<0 and v above lower.
				if c.Sign() > 0 && (!s.hasHi[v] || s.value[v].Cmp(s.upper[v]) < 0) {
					nj = v
					break
				}
				if c.Sign() < 0 && (!s.hasLo[v] || s.value[v].Cmp(s.lower[v]) > 0) {
					nj = v
					break
				}
			} else {
				if c.Sign() > 0 && (!s.hasLo[v] || s.value[v].Cmp(s.lower[v]) > 0) {
					nj = v
					break
				}
				if c.Sign() < 0 && (!s.hasHi[v] || s.value[v].Cmp(s.upper[v]) < 0) {
					nj = v
					break
				}
			}
		}
		if nj == -1 {
			return false, nil
		}
		if below {
			s.pivotAndUpdate(bi, nj, s.lower[bi])
		} else {
			s.pivotAndUpdate(bi, nj, s.upper[bi])
		}
	}
}

// Values materializes the current assignment as plain rationals by
// substituting a concrete positive δ small enough to respect every
// bound. Only call after a successful Check.
func (s *Solver) Values(vars []int) map[int]*big.Rat {
	delta := s.concreteDelta()
	out := make(map[int]*big.Rat, len(vars))
	for _, v := range vars {
		val := new(big.Rat).Mul(s.value[v].B, delta)
		val.Add(val, s.value[v].A)
		out[v] = val
	}
	return out
}

// concreteDelta picks δ ∈ (0, 1] such that substituting it preserves
// every satisfied bound.
func (s *Solver) concreteDelta() *big.Rat {
	delta := big.NewRat(1, 1)
	tighten := func(num, den *big.Rat) {
		// Requires num + δ·den ≥ 0 with den < 0: δ ≤ num / (-den).
		if den.Sign() >= 0 {
			return
		}
		lim := new(big.Rat).Quo(num, new(big.Rat).Neg(den))
		if lim.Sign() > 0 && delta.Cmp(lim) > 0 {
			delta.Set(lim)
		}
	}
	for v := 0; v < s.n; v++ {
		if s.hasLo[v] {
			d := s.value[v].Sub(s.lower[v])
			tighten(d.A, d.B)
		}
		if s.hasHi[v] {
			d := s.upper[v].Sub(s.value[v])
			tighten(d.A, d.B)
		}
	}
	// Stay strictly inside: halve.
	return delta.Mul(delta, big.NewRat(1, 2))
}
