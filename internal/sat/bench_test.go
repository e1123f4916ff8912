package sat

import (
	"math/rand"
	"testing"
)

// BenchmarkPigeonhole measures refutation of PHP(n+1, n) — the structure
// of just-infeasible scheduling probes.
func BenchmarkPigeonhole(b *testing.B) {
	for i := 0; i < b.N; i++ {
		n := 6
		s := New()
		p := make([][]int, n+1)
		for i := range p {
			p[i] = make([]int, n)
			for j := range p[i] {
				p[i][j] = s.NewVar()
			}
		}
		for i := 0; i <= n; i++ {
			lits := make([]Lit, n)
			for j := 0; j < n; j++ {
				lits[j] = Pos(p[i][j])
			}
			s.AddClause(lits...)
		}
		for j := 0; j < n; j++ {
			for i1 := 0; i1 <= n; i1++ {
				for i2 := i1 + 1; i2 <= n; i2++ {
					s.AddClause(Neg(p[i1][j]), Neg(p[i2][j]))
				}
			}
		}
		if s.Solve() != Unsat {
			b.Fatal("PHP should be UNSAT")
		}
	}
}

// BenchmarkRandom3SAT measures satisfiable instances near the phase
// transition.
func BenchmarkRandom3SAT(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	n := 120
	m := int(4.0 * float64(n))
	type cl [3]Lit
	var clauses []cl
	for i := 0; i < m; i++ {
		var c cl
		for j := 0; j < 3; j++ {
			v := rng.Intn(n)
			if rng.Intn(2) == 0 {
				c[j] = Pos(v)
			} else {
				c[j] = Neg(v)
			}
		}
		clauses = append(clauses, c)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for v := 0; v < n; v++ {
			s.NewVar()
		}
		for _, c := range clauses {
			s.AddClause(c[0], c[1], c[2])
		}
		if s.Solve() == Unknown {
			b.Fatal("unexpected unknown")
		}
	}
}

// BenchmarkPropagation measures pure unit-propagation throughput on an
// implication chain.
func BenchmarkPropagation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := New()
		const n = 5000
		for v := 0; v < n; v++ {
			s.NewVar()
		}
		for v := 0; v+1 < n; v++ {
			s.AddClause(Neg(v), Pos(v+1))
		}
		s.AddClause(Pos(0))
		if s.Solve() != Sat {
			b.Fatal("chain should be SAT")
		}
		if !s.Value(n - 1) {
			b.Fatal("propagation incomplete")
		}
	}
}

// BenchmarkAddClause measures building a problem: a reserved solver
// taking binary at-most-one clauses, the bulk of a scheduling encoding,
// then a sequential at-most-one ladder over every variable. One op adds
// every clause once.
func BenchmarkAddClause(b *testing.B) {
	const vars, pairs = 2000, 20000
	rng := rand.New(rand.NewSource(5))
	ps := make([][2]Lit, pairs)
	for i := range ps {
		v := rng.Intn(vars - 1)
		ps[i] = [2]Lit{Neg(v), Neg(v + 1 + rng.Intn(vars-v-1))}
	}
	all := make([]Lit, vars)
	for v := range all {
		all[v] = Pos(v)
	}
	ladderVars, ladderClauses := AtMostOneSize(vars)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		s.Reserve(vars+ladderVars, pairs+ladderClauses, 2*(pairs+ladderClauses))
		for v := 0; v < vars; v++ {
			s.NewVar()
		}
		for _, p := range ps {
			s.AddClause(p[0], p[1])
		}
		s.AtMostOne(all)
	}
}
