package drat_test

import (
	"testing"

	"repro/internal/drat"
	"repro/internal/drat/dratref"
)

// BenchmarkCheck times the hinted checker and the RUP reference side by
// side on the golden checksum_loop certificate (the K=4 refutation of its
// incremental engine) and on a PHP(8,7) refutation, whose proof deletes
// clauses.
func BenchmarkCheck(b *testing.B) {
	golden := goldenCerts(b, "checksum_loop")
	if len(golden) != 1 {
		b.Fatalf("want one checksum_loop certificate, got %d", len(golden))
	}
	php := drat.Refutation(b, 8, 7)
	for _, c := range []drat.RefCase{golden[0], {Name: "php8-7", Formula: php.Formula, Steps: php.Steps}} {
		for _, ck := range []struct {
			name  string
			check func([]drat.Clause, []drat.Step) error
		}{{"hinted", drat.Check}, {"reference", dratref.Check}} {
			b.Run(c.Name+"/"+ck.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := ck.check(c.Formula, c.Steps); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
