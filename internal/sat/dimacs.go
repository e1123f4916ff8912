package sat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteDIMACS writes the problem in DIMACS CNF format: the retained
// problem clauses, every top-level (decision level 0) assignment as a
// unit clause, and — once the solver has refuted the formula outright —
// the empty clause. AddClause simplifies clauses against the top-level
// units and keeps those units only on the trail, so without them an
// exported refutation could re-solve satisfiable. Learned clauses are
// not written. Each comment (plus a generated line with the variable and
// clause counts) is emitted as a leading "c" line, so exported instances
// are self-describing. Newlines inside a comment are replaced with
// spaces: provenance strings can carry caller-supplied text (request
// IDs, GMA names), and a stray line break must not be able to forge a
// problem line.
func (s *Solver) WriteDIMACS(w io.Writer, comments ...string) error {
	var units []Lit
	for _, l := range s.trail {
		if s.level[l.Var()] == 0 {
			units = append(units, l)
		}
	}
	n := len(s.clauses) + len(units)
	if s.unsat {
		n++
	}
	bw := bufio.NewWriter(w)
	for _, c := range comments {
		c = strings.ReplaceAll(c, "\n", " ")
		c = strings.ReplaceAll(c, "\r", " ")
		fmt.Fprintf(bw, "c %s\n", c)
	}
	fmt.Fprintf(bw, "c %d variables, %d clauses\n", s.NumVars(), n)
	fmt.Fprintf(bw, "p cnf %d %d\n", s.NumVars(), n)
	for _, c := range s.clauses {
		for _, l := range c.lits {
			fmt.Fprintf(bw, "%s ", l)
		}
		fmt.Fprintln(bw, "0")
	}
	for _, l := range units {
		fmt.Fprintf(bw, "%s 0\n", l)
	}
	if s.unsat {
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}

// ParseDIMACS reads a DIMACS CNF problem into a fresh solver. A 0 ends a
// clause, so a line holding only "0" is the empty clause and makes the
// problem unsatisfiable; literals left at the end of a line without a
// terminating 0 form a clause of their own.
func ParseDIMACS(r io.Reader) (*Solver, error) {
	s := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	declared := -1
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		if strings.HasPrefix(line, "p") {
			fields := strings.Fields(line)
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("sat: bad problem line %q", line)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("sat: bad variable count in %q", line)
			}
			declared = n
			for s.NumVars() < n {
				s.NewVar()
			}
			continue
		}
		var lits []Lit
		for _, f := range strings.Fields(line) {
			v, err := strconv.Atoi(f)
			if err != nil {
				return nil, fmt.Errorf("sat: bad literal %q", f)
			}
			if v == 0 {
				s.AddClause(lits...)
				lits = lits[:0]
				continue
			}
			idx := v
			if idx < 0 {
				idx = -idx
			}
			if declared >= 0 && idx > declared {
				return nil, fmt.Errorf("sat: literal %d exceeds declared %d vars", v, declared)
			}
			for s.NumVars() < idx {
				s.NewVar()
			}
			if v > 0 {
				lits = append(lits, Pos(idx-1))
			} else {
				lits = append(lits, Neg(idx-1))
			}
		}
		if len(lits) > 0 {
			s.AddClause(lits...)
		}
	}
	return s, sc.Err()
}

// AtMostOne adds clauses forcing at most one of lits to be true, using the
// sequential (ladder) encoding when the list is long and pairwise clauses
// when it is short. Fresh auxiliary variables are allocated as needed.
func (s *Solver) AtMostOne(lits []Lit) {
	if len(lits) <= 1 {
		return
	}
	if len(lits) <= 5 {
		for i := 0; i < len(lits); i++ {
			for j := i + 1; j < len(lits); j++ {
				s.AddClause(lits[i].Not(), lits[j].Not())
			}
		}
		return
	}
	// Sequential encoding: aux[i] means "some lit among lits[0..i] is true".
	n := len(lits)
	aux := make([]Lit, n-1)
	for i := range aux {
		aux[i] = Pos(s.NewVar())
	}
	// lits[0] -> aux[0]
	s.AddClause(lits[0].Not(), aux[0])
	for i := 1; i < n-1; i++ {
		// lits[i] -> aux[i]; aux[i-1] -> aux[i]; lits[i] -> ¬aux[i-1]
		s.AddClause(lits[i].Not(), aux[i])
		s.AddClause(aux[i-1].Not(), aux[i])
		s.AddClause(lits[i].Not(), aux[i-1].Not())
	}
	// lits[n-1] -> ¬aux[n-2]
	s.AddClause(lits[n-1].Not(), aux[n-2].Not())
}

// AtMostK adds clauses forcing at most k of lits to be true, using the
// Sinz sequential-counter encoding. k <= 0 forces all literals false.
func (s *Solver) AtMostK(lits []Lit, k int) {
	if k <= 0 {
		for _, l := range lits {
			s.AddClause(l.Not())
		}
		return
	}
	if len(lits) <= k {
		return
	}
	if k == 1 {
		s.AtMostOne(lits)
		return
	}
	n := len(lits)
	// reg[i][j] means "at least j+1 of lits[0..i] are true".
	reg := make([][]Lit, n-1)
	for i := range reg {
		reg[i] = make([]Lit, k)
		for j := range reg[i] {
			reg[i][j] = Pos(s.NewVar())
		}
	}
	// Base row.
	s.AddClause(lits[0].Not(), reg[0][0])
	for j := 1; j < k; j++ {
		s.AddClause(reg[0][j].Not())
	}
	for i := 1; i < n-1; i++ {
		s.AddClause(lits[i].Not(), reg[i][0])
		s.AddClause(reg[i-1][0].Not(), reg[i][0])
		for j := 1; j < k; j++ {
			s.AddClause(lits[i].Not(), reg[i-1][j-1].Not(), reg[i][j])
			s.AddClause(reg[i-1][j].Not(), reg[i][j])
		}
		s.AddClause(lits[i].Not(), reg[i-1][k-1].Not())
	}
	s.AddClause(lits[n-1].Not(), reg[n-2][k-1].Not())
}
