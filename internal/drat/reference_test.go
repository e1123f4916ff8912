package drat_test

import (
	"bytes"
	"testing"

	"repro/internal/arch/alpha"
	"repro/internal/axioms"
	"repro/internal/core"
	"repro/internal/drat"
	"repro/internal/drat/dratref"
	"repro/internal/lang"
	"repro/internal/programs"
)

// goldenPrograms is the golden corpus of internal/core.
var goldenPrograms = []struct{ name, src string }{
	{"quickstart", programs.Quickstart},
	{"byteswap4", programs.Byteswap4},
	{"byteswap5", programs.Byteswap5},
	{"copyloop", programs.CopyLoop},
	{"rowop", programs.Rowop},
	{"lcp2", programs.Lcp2},
	{"sumloop", programs.SumLoop},
	{"checksum", programs.Checksum},
}

// goldenCerts compiles the golden corpus with Certify and returns every
// checked certificate as a plain formula and derivation: the premises
// with the Assumed units appended, and the proof with its closing empty
// clause. only, when non-empty, keeps one GMA.
func goldenCerts(tb testing.TB, only string) []drat.RefCase {
	tb.Helper()
	base, err := axioms.Builtin()
	if err != nil {
		tb.Fatal(err)
	}
	var out []drat.RefCase
	for _, p := range goldenPrograms {
		prog, err := lang.Parse(p.src)
		if err != nil {
			tb.Fatalf("%s: %v", p.name, err)
		}
		for _, proc := range prog.Procs {
			for _, g := range proc.GMAs {
				if only != "" && g.Name != only {
					continue
				}
				o := core.Options{Desc: alpha.EV6(), Axioms: append(append([]*axioms.Axiom(nil), base...), prog.Axioms...)}
				o.Schedule.Certify = true
				c, err := core.CompileGMA(g, o)
				if err != nil {
					tb.Fatalf("%s/%s: %v", p.name, g.Name, err)
				}
				if c.Cert == nil {
					continue
				}
				formula := append([]drat.Clause(nil), c.Cert.Formula...)
				for _, l := range c.Cert.Assumed {
					formula = append(formula, drat.Clause{l})
				}
				out = append(out, drat.RefCase{Name: p.name + "/" + g.Name, Formula: formula, Steps: c.Cert.Proof()})
			}
		}
	}
	return out
}

// TestCheckerAgainstReference runs the hinted checker and the RUP
// reference in internal/drat/dratref side by side. Both must accept every
// proof the solver produces: the UNSAT DIMACS corpus in four clause
// orders, PHP(3,2)…PHP(8,7) and every golden-corpus certificate. On every
// corruption TestCorruptProofRejected makes, the hinted checker may be
// stricter than the reference but never looser: its acceptance implies
// the reference's.
func TestCheckerAgainstReference(t *testing.T) {
	golden := goldenCerts(t, "")
	if len(golden) == 0 {
		t.Fatal("the golden corpus produced no certificates")
	}
	for _, c := range append(drat.SolverProofs(t), golden...) {
		if err := drat.Check(c.Formula, c.Steps); err != nil {
			t.Errorf("%s: checker rejected a solver proof: %v", c.Name, err)
		}
		if err := dratref.Check(c.Formula, c.Steps); err != nil {
			t.Errorf("%s: reference rejected a solver proof: %v", c.Name, err)
		}
	}
	rejected, stricter := 0, 0
	for _, c := range drat.Corruptions(t) {
		got, want := drat.Check(c.Formula, c.Steps), dratref.Check(c.Formula, c.Steps)
		if got == nil && want != nil {
			t.Errorf("%s: checker accepted what the reference rejects: %v", c.Name, want)
		}
		if got != nil {
			rejected++
			if want == nil {
				stricter++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("the checker rejected no corruption: the cases must include broken proofs")
	}
	t.Logf("checker rejected %d corruptions, %d of them accepted by the reference", rejected, stricter)
}

// TestTextRoundTrip writes a PHP(4,3) proof as DRAT text, parses it back
// and checks the parsed proof with the RUP reference: the text carries no
// hints, so it is plain DRAT.
func TestTextRoundTrip(t *testing.T) {
	cert := drat.Refutation(t, 4, 3)
	var buf bytes.Buffer
	if err := drat.WriteText(&buf, cert.Steps); err != nil {
		t.Fatal(err)
	}
	got, err := drat.ParseText(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ParseText: %v", err)
	}
	if !drat.StepsEqual(got, cert.Steps) {
		t.Fatal("text round-trip mismatch")
	}
	if err := dratref.Check(cert.Formula, got); err != nil {
		t.Fatalf("round-tripped proof rejected: %v", err)
	}
}
