package repro

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/drat"
	"repro/internal/drat/dratref"
	"repro/internal/programs"
	"repro/internal/sat"
)

// parseCNF reads the clauses of a DIMACS CNF export.
func parseCNF(t *testing.T, cnf string) []drat.Clause {
	t.Helper()
	var out []drat.Clause
	var cur drat.Clause
	for _, line := range strings.Split(cnf, "\n") {
		if line == "" || line[0] == 'c' || line[0] == 'p' {
			continue
		}
		for _, f := range strings.Fields(line) {
			l, err := strconv.Atoi(f)
			if err != nil {
				t.Fatalf("bad literal %q", f)
			}
			if l == 0 {
				out = append(out, cur)
				cur = nil
				continue
			}
			cur = append(cur, l)
		}
	}
	return out
}

// solveCNF re-solves clauses with a fresh solver through sat.ParseDIMACS.
func solveCNF(t *testing.T, clauses []drat.Clause) sat.Result {
	t.Helper()
	var b strings.Builder
	for _, c := range clauses {
		for _, l := range c {
			b.WriteString(strconv.Itoa(l))
			b.WriteByte(' ')
		}
		b.WriteString("0\n")
	}
	s, err := sat.ParseDIMACS(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	return s.Solve()
}

// TestProofExportRechecks exports the certified K−1 refutations of
// byteswap4 and checksum_loop — both answered by the incremental engine,
// so the CNF is the engine's window plus the probed budget selector as a
// final unit — and checks what the export claims: the proof parses back
// and the RUP reference (dratref; the export carries no hints, so it is
// plain DRAT) accepts it against the CNF, and a fresh solver refutes the
// CNF. Without the selector unit the CNF is satisfiable (the window alone
// asks nothing), and without the ¬sel_j units the engine committed for
// smaller refuted budgets it is still refuted: those units do not narrow
// the question.
func TestProofExportRechecks(t *testing.T) {
	for _, tc := range []struct{ src, gma string }{
		{programs.Byteswap4, "byteswap4"},
		{programs.Checksum, "checksum_loop"},
	} {
		res, err := Compile(tc.src, Options{Certify: true})
		if err != nil {
			t.Fatal(err)
		}
		var g *CompiledGMA
		for _, p := range res.Procs {
			for _, cg := range p.GMAs {
				if cg.Name == tc.gma {
					g = cg
				}
			}
		}
		if g == nil || !g.Certified {
			t.Fatalf("%s: not compiled and certified", tc.gma)
		}
		var proof, cnf bytes.Buffer
		if err := g.WriteProof(&proof); err != nil {
			t.Fatal(err)
		}
		if err := g.WriteProofCNF(&cnf); err != nil {
			t.Fatal(err)
		}
		steps, err := drat.ParseText(&proof)
		if err != nil {
			t.Fatalf("%s: proof does not parse: %v", tc.gma, err)
		}
		clauses := parseCNF(t, cnf.String())
		if err := dratref.Check(clauses, steps); err != nil {
			t.Fatalf("%s: exported proof rejected: %v", tc.gma, err)
		}
		if got := solveCNF(t, clauses); got != sat.Unsat {
			t.Fatalf("%s: exported CNF solves %v, want UNSAT", tc.gma, got)
		}

		// The selector unit is the export's last clause. Selectors occur
		// positively only in the chain clauses ¬sel_{j−1} ∨ sel_j, so
		// walking those down from it finds every smaller selector; the
		// committed units are their negations.
		last := clauses[len(clauses)-1]
		if len(last) != 1 || last[0] < 0 {
			t.Fatalf("%s: export does not end in a positive selector unit: %v", tc.gma, last)
		}
		if got := solveCNF(t, clauses[:len(clauses)-1]); got != sat.Sat {
			t.Fatalf("%s: CNF without its selector unit solves %v, want SAT", tc.gma, got)
		}
		smaller := map[int]bool{}
		for sel := last[0]; ; {
			prev := 0
			for _, c := range clauses[:len(clauses)-1] {
				for _, l := range c {
					if l != sel {
						continue
					}
					if len(c) != 2 || prev != 0 {
						t.Fatalf("%s: selector %d occurs positively outside one chain clause: %v", tc.gma, sel, c)
					}
					prev = -c[0]
					if c[0] == sel {
						prev = -c[1]
					}
				}
			}
			if prev <= 0 {
				break
			}
			smaller[prev] = true
			sel = prev
		}
		var kept []drat.Clause
		committed := 0
		for _, c := range clauses {
			if len(c) == 1 && c[0] < 0 && smaller[-c[0]] {
				committed++
				continue
			}
			kept = append(kept, c)
		}
		if committed == 0 {
			t.Fatalf("%s: export carries no committed ¬sel_j units", tc.gma)
		}
		if got := solveCNF(t, kept); got != sat.Unsat {
			t.Fatalf("%s: CNF without its %d committed units solves %v, want UNSAT", tc.gma, committed, got)
		}
	}
}
