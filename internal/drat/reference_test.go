package drat_test

import (
	"testing"

	"repro/internal/arch/alpha"
	"repro/internal/axioms"
	"repro/internal/core"
	"repro/internal/drat"
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

// TestCheckerAgainstReference runs the flat arena checker and the
// pointer-based checker it replaced side by side: on solver proofs of
// the DIMACS corpus (also permuted), PHP(n+1,n) proofs with deletions,
// every corruption TestCorruptProofRejected makes, and every
// golden-corpus certificate, both must reach the same verdict — and a
// rejection must name the same failing step.
func TestCheckerAgainstReference(t *testing.T) {
	cases := drat.ReferenceCases(t)
	golden := goldenCerts(t, "")
	if len(golden) == 0 {
		t.Fatal("the golden corpus produced no certificates")
	}
	seen := map[string]int{}
	for _, c := range append(cases, golden...) {
		got := drat.Verdict(drat.Check(c.Formula, c.Steps))
		want := drat.Verdict(drat.RefCheck(c.Formula, c.Steps))
		if got != want {
			t.Errorf("%s: checker %s, reference %s", c.Name, got, want)
		}
		seen[want[:4]]++
	}
	if seen["acce"] == 0 || seen["reje"] == 0 {
		t.Fatalf("verdicts %v: the cases must include both valid and broken proofs", seen)
	}
}
