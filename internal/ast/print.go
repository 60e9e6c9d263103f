package ast

import (
	"fmt"
	"math/big"
	"strings"
	"sync"
	"unicode/utf8"
)

var builderPool = sync.Pool{New: func() any { return new(strings.Builder) }}

// Print returns the canonical SMT-LIB rendering of the term. The output
// parses back to a structurally equal term (given matching declarations),
// which also makes it usable as a structural hash key. Builders are
// pooled: rendering in a hot loop does not grow a fresh buffer per call.
func Print(t Term) string {
	b := builderPool.Get().(*strings.Builder)
	b.Reset()
	printTerm(b, t)
	s := b.String()
	builderPool.Put(b)
	return s
}

func printTerm(b *strings.Builder, t Term) {
	switch n := t.(type) {
	case *Var:
		b.WriteString(n.Name)
	case *BoolLit:
		if n.V {
			b.WriteString("true")
		} else {
			b.WriteString("false")
		}
	case *IntLit:
		printInt(b, n.V)
	case *RealLit:
		printRat(b, n.V)
	case *StrLit:
		printStringLit(b, n.V)
	case *App:
		if len(n.Args) == 0 {
			b.WriteString(n.Op.String())
			return
		}
		b.WriteByte('(')
		b.WriteString(n.Op.String())
		for _, a := range n.Args {
			b.WriteByte(' ')
			printTerm(b, a)
		}
		b.WriteByte(')')
	case *Quant:
		if n.Forall {
			b.WriteString("(forall (")
		} else {
			b.WriteString("(exists (")
		}
		for i, sv := range n.Bound {
			if i > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(b, "(%s %s)", sv.Name, sv.Sort)
		}
		b.WriteString(") ")
		printTerm(b, n.Body)
		b.WriteByte(')')
	default:
		panic(fmt.Sprintf("ast: unknown term type %T", t))
	}
}

func printInt(b *strings.Builder, v *big.Int) {
	if v.Sign() < 0 {
		b.WriteString("(- ")
		b.WriteString(new(big.Int).Neg(v).String())
		b.WriteByte(')')
		return
	}
	b.WriteString(v.String())
}

func printRat(b *strings.Builder, v *big.Rat) {
	if v.Sign() < 0 {
		b.WriteString("(- ")
		printRat(b, new(big.Rat).Neg(v))
		b.WriteByte(')')
		return
	}
	if v.IsInt() {
		b.WriteString(v.Num().String())
		b.WriteString(".0")
		return
	}
	// Exact decimal if the denominator divides a power of ten, else an
	// explicit division of decimal literals.
	if dec, ok := exactDecimal(v); ok {
		b.WriteString(dec)
		return
	}
	fmt.Fprintf(b, "(/ %s.0 %s.0)", v.Num().String(), v.Denom().String())
}

// exactDecimal renders a non-negative rational as a finite decimal if
// possible.
func exactDecimal(v *big.Rat) (string, bool) {
	den := new(big.Int).Set(v.Denom())
	two, five, ten, one := big.NewInt(2), big.NewInt(5), big.NewInt(10), big.NewInt(1)
	twos, fives := 0, 0
	tmp := new(big.Int)
	for den.Cmp(one) != 0 && twos+fives < 64 {
		if tmp.Mod(den, two).Sign() == 0 {
			den.Div(den, two)
			twos++
		} else if tmp.Mod(den, five).Sign() == 0 {
			den.Div(den, five)
			fives++
		} else {
			return "", false
		}
	}
	if den.Cmp(one) != 0 {
		return "", false
	}
	digits := twos
	if fives > digits {
		digits = fives
	}
	scaled := new(big.Int).Mul(v.Num(), new(big.Int).Exp(ten, big.NewInt(int64(digits)), nil))
	scaled.Div(scaled, v.Denom())
	s := scaled.String()
	if digits == 0 {
		return s + ".0", true
	}
	for len(s) <= digits {
		s = "0" + s
	}
	return s[:len(s)-digits] + "." + s[len(s)-digits:], true
}

func printStringLit(b *strings.Builder, s string) {
	b.WriteByte('"')
	for i := 0; i < len(s); {
		r, size := utf8.DecodeRuneInString(s[i:])
		// Invalid UTF-8 bytes and runes beyond SMT-LIB's \u{} range
		// (2.6 caps escapes at 0x2FFFF) are escaped byte by byte.
		// Re-parsing such an escape yields the rune with that value —
		// normalizing the string — and printing the result reproduces
		// the same escape, so printing stays a parse fixpoint.
		if (r == utf8.RuneError && size == 1) || r > 0x2FFFF {
			for j := 0; j < size; j++ {
				fmt.Fprintf(b, `\u{%x}`, s[i+j])
			}
			i += size
			continue
		}
		switch {
		case r == '"':
			b.WriteString(`""`)
		case r == '\\':
			// A raw backslash could start an escape on re-parse (the
			// lexer accepts \u{..} and the legacy \n \t \\ \").
			b.WriteString(`\u{5c}`)
		case r >= 0x20 && r < 0x7f:
			b.WriteByte(byte(r))
		default:
			fmt.Fprintf(b, `\u{%x}`, r)
		}
		i += size
	}
	b.WriteByte('"')
}

// Equal reports structural equality of two terms. Numeric literals
// compare by value; bound-variable names compare literally (terms are
// produced by shared constructors, so alpha-variant trees are compared
// as distinct, which is the behaviour dedup and caching want).
//
// Interned terms (everything built through this package's constructors)
// make this a pointer comparison; the structural walk below only runs
// for terms forged outside the constructors, and short-circuits on the
// cached structural hash.
func Equal(a, b Term) bool {
	if a == b {
		return true
	}
	if Hash(a) != Hash(b) {
		return false
	}
	switch x := a.(type) {
	case *Var:
		y, ok := b.(*Var)
		return ok && x.Name == y.Name && x.VSort == y.VSort
	case *BoolLit:
		y, ok := b.(*BoolLit)
		return ok && x.V == y.V
	case *IntLit:
		y, ok := b.(*IntLit)
		return ok && x.V.Cmp(y.V) == 0
	case *RealLit:
		y, ok := b.(*RealLit)
		return ok && x.V.Cmp(y.V) == 0
	case *StrLit:
		y, ok := b.(*StrLit)
		return ok && x.V == y.V
	case *App:
		y, ok := b.(*App)
		if !ok || x.Op != y.Op || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !Equal(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *Quant:
		y, ok := b.(*Quant)
		if !ok || x.Forall != y.Forall || len(x.Bound) != len(y.Bound) {
			return false
		}
		for i := range x.Bound {
			if x.Bound[i] != y.Bound[i] {
				return false
			}
		}
		return Equal(x.Body, y.Body)
	default:
		return false
	}
}
