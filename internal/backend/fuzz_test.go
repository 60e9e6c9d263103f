package backend

import (
	"strings"
	"testing"
)

// FuzzParseVerdict checks the output normalizer's contract on arbitrary
// byte streams: it never panics; a verdict it reports is one of the
// four parseable tokens, read from some input line that trims and
// lower-cases to exactly that token (so no prefix, superstring or prose
// aliases to a verdict); and each token's CRLF-terminated form parses
// back to itself. The seed corpus lives in testdata/fuzz.
func FuzzParseVerdict(f *testing.F) {
	for _, v := range []Verdict{Sat, Unsat, Unknown, Timeout} {
		if got, ok := ParseVerdict(v.String() + "\r\n"); !ok || got != v {
			f.Fatalf("ParseVerdict(%q) = (%v, %v), want (%v, true)", v.String()+"\r\n", got, ok, v)
		}
	}
	f.Fuzz(func(t *testing.T, raw string) {
		v, ok := ParseVerdict(raw)
		if !ok {
			return
		}
		switch v {
		case Sat, Unsat, Unknown, Timeout:
		default:
			t.Fatalf("ParseVerdict(%q) = %v: not a parseable verdict", raw, v)
		}
		found := false
		for _, line := range strings.Split(raw, "\n") {
			if strings.ToLower(strings.TrimSpace(line)) == v.String() {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("ParseVerdict(%q) = %v, but no input line reads %q", raw, v, v.String())
		}
		if got, ok := ParseVerdict(v.String() + "\r\n"); !ok || got != v {
			t.Fatalf("ParseVerdict(%q) = (%v, %v), want (%v, true)", v.String()+"\r\n", got, ok, v)
		}
	})
}
