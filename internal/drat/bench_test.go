package drat_test

import (
	"testing"

	"repro/internal/drat"
	"repro/internal/sat"
)

// BenchmarkCheck times the DRAT check on the golden checksum_loop
// certificate (the K=4 refutation of its incremental engine) and on a
// PHP(8,7) refutation, whose proof deletes clauses.
func BenchmarkCheck(b *testing.B) {
	golden := goldenCerts(b, "checksum_loop")
	if len(golden) != 1 {
		b.Fatalf("want one checksum_loop certificate, got %d", len(golden))
	}
	php := pigeonhole(8, 7)
	for _, c := range []drat.RefCase{golden[0], php} {
		b.Run(c.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := drat.Check(c.Formula, c.Steps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// pigeonhole solves PHP(pigeons, holes) with a recorder attached and
// returns its refutation.
func pigeonhole(pigeons, holes int) drat.RefCase {
	s := sat.New()
	rec := drat.NewRecorder()
	s.Proof = rec
	v := func(i, j int) int { return i*holes + j }
	for i := 0; i < pigeons*holes; i++ {
		s.NewVar()
	}
	for i := 0; i < pigeons; i++ {
		lits := make([]sat.Lit, holes)
		for j := range lits {
			lits[j] = sat.Pos(v(i, j))
		}
		s.AddClause(lits...)
	}
	for j := 0; j < holes; j++ {
		for a := 0; a < pigeons; a++ {
			for c := a + 1; c < pigeons; c++ {
				s.AddClause(sat.Neg(v(a, j)), sat.Neg(v(c, j)))
			}
		}
	}
	s.Solve()
	cert := rec.Certificate()
	return drat.RefCase{Name: "php8-7", Formula: cert.Formula, Steps: cert.Steps}
}
