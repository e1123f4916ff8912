package sat

// Proof is a sink for the solver's clausal derivation, in the style of
// DRAT proof logging: every original problem clause, every clause the
// CDCL loop learns, and every learned clause the database reduction
// deletes is reported, in order. A solver with a Proof attached that
// answers Unsat has, by construction, emitted a refutation ending in the
// empty clause; an independent checker (internal/drat) can then replay
// the derivation and certify the UNSAT answer without trusting the
// solver's watched-literal or conflict-analysis code.
//
// Contract details:
//
//   - Clause IDs: every Input and Learn call logs one clause, and that
//     clause's ID is the 1-based position of the call among all Input
//     and Learn calls on the solver, interleaved in call order. Delete
//     calls take no ID of their own. IDs are int32.
//   - Input receives each clause exactly as given to AddClause, before
//     top-level simplification, so the sink sees the original clause
//     database — the premises of the derivation.
//   - Learn receives derived clauses: the first-UIP clause of every
//     conflict, and the empty clause when the formula is refuted at the
//     top level. Every learned clause is RUP (reverse unit propagation)
//     with respect to the premises plus the previously learned, not yet
//     deleted clauses, which is what makes the log checkable.
//   - Learn's hints are the IDs of the lemma's antecedents, LRAT-style:
//     for a conflict's lemma, the reason of every literal conflict
//     analysis resolved, in propagation order, then the conflict clause;
//     for the empty clause, the one clause false at the top level. Under
//     the assignment that makes the lemma false plus the top-level
//     assignment, each hint but the last has exactly one literal not
//     false, and the last has none. Literals fixed at the top level get
//     no hints: a checker must propagate its own top level.
//   - Hints are untrusted input to a checker. They come from the same
//     conflict analysis the checker exists to distrust, so a checker
//     must verify every hint and reject a wrong one, never repair it.
//   - Delete receives learned clauses dropped by database reduction,
//     with the ID the clause was logged under.
//   - The slices are only valid during the call; implementations must
//     copy (the solver permutes clause literals in place as watches
//     move, and reuses its hint buffer).
//
// Proof logging is off (zero cost beyond a nil check) when the field is
// nil. Methods are called from the solving goroutine only.
type Proof interface {
	// Input records one original problem clause.
	Input(lits []Lit)
	// Learn records one derived clause and the IDs of its antecedents;
	// an empty slice of literals is the empty clause, completing a
	// refutation.
	Learn(lits []Lit, hints []int32)
	// Delete records the deletion of the previously learned clause
	// logged under id.
	Delete(lits []Lit, id int32)
}

// logInput forwards an original clause to the proof sink, if any.
func (s *Solver) logInput(lits []Lit) {
	if s.Proof != nil {
		s.proofID++
		s.Proof.Input(lits)
	}
}

// logLearn forwards a derived clause and its hints to the proof sink, if
// any.
func (s *Solver) logLearn(lits []Lit, hints []int32) {
	if s.Proof != nil {
		s.proofID++
		s.Proof.Learn(lits, hints)
	}
}

// logEmpty logs the empty clause, hinted by the clause with ID id that is
// false at the top level.
func (s *Solver) logEmpty(id int32) {
	if s.Proof != nil {
		s.hints = append(s.hints[:0], id)
		s.logLearn(nil, s.hints)
	}
}

// logDelete forwards a deleted learned clause to the proof sink, if any.
func (s *Solver) logDelete(c cref) {
	if s.Proof != nil {
		s.Proof.Delete(s.lits(c), s.hdrs[c].id)
	}
}
