package eval

import (
	"repro/internal/ast"
	"repro/internal/regex"
)

// Compiled evaluates a term compiled by Compile against a slot vector:
// slots[i] is the value of the variable mapped to slot i, nil meaning
// unassigned. Each compiled node keeps its own argument buffer (and a
// ground regex membership its own matcher), so a Compiled is not safe
// for concurrent use.
type Compiled func(slots []Value) (Value, error)

// Compile turns t into a closure over a slot vector. slot maps a free
// variable's name to its index (negative for none); the mapping is
// resolved once, here. The result agrees with Term under the model
// binding each slotted name to its slot's value: the same value, or an
// *Error with the same cause and path. Literal values are built once,
// and the operator semantics are Term's own (applyOp, evalRegex).
func Compile(t ast.Term, slot func(name string) int) Compiled {
	switch n := t.(type) {
	case *ast.Var:
		i := slot(n.Name)
		return func(s []Value) (Value, error) {
			var v Value
			if i >= 0 && i < len(s) {
				v = s[i]
			}
			if v != nil && v.Sort() == n.VSort {
				return v, nil // the DFS's hot path, without varValue's call
			}
			return varValue(n, v)
		}
	case *ast.App:
		return compileApp(n, slot)
	default:
		// Literals, quantifiers and unknown terms do not read the model.
		v, err := Term(t, nil)
		return func([]Value) (Value, error) { return v, err }
	}
}

// compileBool is Compile followed by Bool's unwrapping.
func compileBool(t ast.Term, slot func(string) int) func([]Value) (bool, error) {
	c := Compile(t, slot)
	return func(s []Value) (bool, error) {
		v, err := c(s)
		return asBool(t, v, err)
	}
}

func compileApp(n *ast.App, slot func(string) int) Compiled {
	// The short-circuiting operators mirror app: arguments past the
	// deciding one are never evaluated.
	switch n.Op {
	case ast.OpAnd, ast.OpOr:
		args := make([]func([]Value) (bool, error), len(n.Args))
		for i, a := range n.Args {
			args[i] = compileBool(a, slot)
		}
		decide := n.Op == ast.OpOr // the argument value that decides
		return func(s []Value) (Value, error) {
			for i, a := range args {
				b, err := a(s)
				if err != nil {
					return nil, at(err, i)
				}
				if b == decide {
					return BoolV(decide), nil
				}
			}
			return BoolV(!decide), nil
		}
	case ast.OpImplies:
		last := len(n.Args) - 1
		conds := make([]func([]Value) (bool, error), last)
		for i := range conds {
			conds[i] = compileBool(n.Args[i], slot)
		}
		concl := Compile(n.Args[last], slot)
		return func(s []Value) (Value, error) {
			for i, c := range conds {
				b, err := c(s)
				if err != nil {
					return nil, at(err, i)
				}
				if !b {
					return BoolV(true), nil
				}
			}
			v, err := concl(s)
			if err != nil {
				return nil, at(err, last)
			}
			return v, nil
		}
	case ast.OpIte:
		cond := compileBool(n.Args[0], slot)
		branches := [3]Compiled{nil, Compile(n.Args[1], slot), Compile(n.Args[2], slot)}
		return func(s []Value) (Value, error) {
			c, err := cond(s)
			if err != nil {
				return nil, at(err, 0)
			}
			branch := 2
			if c {
				branch = 1
			}
			v, err := branches[branch](s)
			if err != nil {
				return nil, at(err, branch)
			}
			return v, nil
		}
	case ast.OpStrInRe:
		return compileInRe(n, slot)
	}

	args := make([]Compiled, len(n.Args))
	for i, a := range n.Args {
		args[i] = Compile(a, slot)
	}
	buf := make([]Value, len(args))
	return func(s []Value) (Value, error) {
		for i, a := range args {
			v, err := a(s)
			if err != nil {
				return nil, at(err, i)
			}
			buf[i] = v
		}
		return applyOp(n, buf)
	}
}

// compileInRe compiles a membership. A ground language is built once and
// matched through one memoizing matcher; matching spends no fuel, so
// reusing the matcher's derivative memo is unobservable. A language with
// free variables is rebuilt per call from its compiled string leaves.
func compileInRe(n *ast.App, slot func(string) int) Compiled {
	subject := Compile(n.Args[0], slot)
	str := func(s []Value) (string, error) {
		v, err := subject(s)
		return inReSubject(n, v, err)
	}
	if len(ast.FreeVars(n.Args[1])) == 0 {
		re, reErr := evalRegex(n.Args[1], func(t ast.Term) (Value, error) { return Term(t, nil) })
		var m *regex.Matcher
		if reErr != nil {
			reErr = at(reErr, 1)
		} else {
			m = regex.NewMatcher(re)
		}
		return func(s []Value) (Value, error) {
			sv, err := str(s)
			if err != nil {
				return nil, err
			}
			if reErr != nil {
				return nil, reErr
			}
			return BoolV(m.Match(sv)), nil
		}
	}
	leaves := map[ast.Term]Compiled{}
	ast.Walk(n.Args[1], func(t ast.Term) bool {
		if a, ok := t.(*ast.App); ok && (a.Op == ast.OpStrToRe || a.Op == ast.OpReRange) {
			for _, arg := range a.Args {
				leaves[arg] = Compile(arg, slot)
			}
		}
		return true
	})
	return func(s []Value) (Value, error) {
		sv, err := str(s)
		if err != nil {
			return nil, err
		}
		re, err := evalRegex(n.Args[1], func(t ast.Term) (Value, error) { return leaves[t](s) })
		if err != nil {
			return nil, at(err, 1)
		}
		return BoolV(regex.Match(re, sv)), nil
	}
}
