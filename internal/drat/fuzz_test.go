package drat

import (
	"bytes"
	"testing"
)

// hintedSeed is a valid hinted refutation in decodeInstance's format:
// (x1∨x2)(x1∨¬x2)(¬x1∨x3)(¬x1∨¬x3), the lemma (x1) hinted by the first
// two premises, then the empty clause.
var hintedSeed = []byte{0x04, 0x00, 0x02, 0x80, 0x00, 0x03, 0x80, 0x01, 0x04, 0x80, 0x01, 0x05, 0x80, 0x00, 0x60, 0x61, 0x80, 0x80}

// fuzzMaxVars bounds the decoded instances so naive enumeration stays
// instant; it matches internal/sat's FuzzSolver scale.
const fuzzMaxVars = 6

// decodeInstance turns fuzz bytes into a small formula plus a hinted
// step list. The first byte fixes how many leading clauses are premises;
// after it, a byte with the high bit set terminates a clause, and bit
// 0x40 of a terminator marks the clause — when it lands in the step list
// — as a deletion. Bytes 0x60–0x7F add a hint to the clause being built:
// the low five bits number a clause in premises-then-steps order, and
// that becomes its ref (premise p as p+1, step j as −j−1), so refs out of
// range, to later steps, to the step itself and to deletions all occur.
// Every other byte is a literal. Empty clauses are deliberately
// representable: an empty premise (trivially UNSAT formula), an empty
// addition (a refutation claim), and an empty deletion are all
// interesting checker inputs.
func decodeInstance(data []byte) ([]Clause, []Step) {
	nFormula := 0
	if len(data) > 0 {
		nFormula = int(data[0] % 16)
		data = data[1:]
	}
	var formula []Clause
	var steps []Step
	var cur Clause
	var hints []int32
	emit := func(del bool) {
		c, h := cur, hints
		cur, hints = nil, nil
		if len(formula) < nFormula {
			formula = append(formula, c)
			return
		}
		steps = append(steps, Step{Del: del, Lits: c, Hints: h})
	}
	for _, b := range data {
		if len(formula)+len(steps) >= 32 {
			break
		}
		switch {
		case b&0x80 != 0:
			emit(b&0x40 != 0)
		case b >= 0x60:
			n := int32(b & 0x1f)
			if n < int32(nFormula) {
				hints = append(hints, n+1)
			} else {
				hints = append(hints, ^(n - int32(nFormula)))
			}
		default:
			if len(cur) >= 3 {
				emit(false)
			}
			v := int(b>>1)%fuzzMaxVars + 1
			if b&1 == 1 {
				v = -v
			}
			cur = append(cur, v)
		}
	}
	if len(cur) > 0 || len(hints) > 0 {
		emit(false)
	}
	return formula, steps
}

// naiveSatisfiable decides the formula by truth-table enumeration — the
// ground truth the checker's verdicts are measured against.
func naiveSatisfiable(formula []Clause) bool {
	for m := 0; m < 1<<fuzzMaxVars; m++ {
		ok := true
		for _, c := range formula {
			cs := false
			for _, l := range c {
				v := l
				if v < 0 {
					v = -v
				}
				if (m>>(v-1)&1 == 1) == (l > 0) {
					cs = true
					break
				}
			}
			if !cs {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// FuzzDRATChecker is the soundness fuzzer: for any decoded formula and
// any step list, the checker must never panic, and it must never accept
// a "refutation" of a formula that enumeration proves satisfiable. The
// steps are additionally re-tried with a forced empty-clause claim
// appended, so every input exercises the accept path, not just the
// malformed-proof reject paths.
func FuzzDRATChecker(f *testing.F) {
	f.Add([]byte{})
	// (x1)(¬x1) + empty-clause claim: a minimal valid refutation.
	f.Add([]byte{0x02, 0x00, 0x80, 0x01, 0x80, 0x80})
	// (x1∨x2)(¬x1)(¬x2) with the unit (x2) derived before the claim.
	f.Add([]byte{0x03, 0x00, 0x02, 0x80, 0x01, 0x80, 0x03, 0x80, 0x02, 0x80, 0x80})
	// A deletion step interleaved (terminator 0xC0 = delete).
	f.Add([]byte{0x02, 0x00, 0x02, 0x80, 0x01, 0x80, 0x00, 0x02, 0xC0, 0x80})
	f.Add(hintedSeed)
	// Satisfiable formula with a bogus claim: must be rejected.
	f.Add([]byte{0x01, 0x00, 0x02, 0x80, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		formula, steps := decodeInstance(data)
		satisfiable := naiveSatisfiable(formula)
		if err := Check(formula, steps); err == nil && satisfiable {
			t.Fatalf("checker accepted a refutation of a satisfiable formula\nformula: %v\nsteps: %v",
				formula, steps)
		}
		claimed := append(steps[:len(steps):len(steps)], Step{})
		if err := Check(formula, claimed); err == nil && satisfiable {
			t.Fatalf("checker accepted a forced empty-clause claim on a satisfiable formula\nformula: %v\nsteps: %v",
				formula, steps)
		}
	})
}

// FuzzDRATParse throws arbitrary bytes at the textual parser: it must
// never panic, and whatever it does parse must survive a lossless round
// trip through WriteText. The byte-tagged seeds are non-text junk.
func FuzzDRATParse(f *testing.F) {
	f.Add([]byte(""))
	f.Add([]byte("1 2 0\nd 1 2 0\n0\n"))
	f.Add([]byte("c comment\n-1 3 0\n"))
	f.Add([]byte{'a', 2, 0, 'd', 5, 0, 'a', 0})
	f.Add([]byte{'a', 0x80, 0x01, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		steps, err := ParseText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var text bytes.Buffer
		if err := WriteText(&text, steps); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		back, err := ParseText(bytes.NewReader(text.Bytes()))
		if err != nil {
			t.Fatalf("text round trip failed to parse: %v\ninput: %q", err, text.String())
		}
		if !stepsEqual(steps, back) {
			t.Fatalf("text round trip changed steps:\n%v\n%v", steps, back)
		}
	})
}
