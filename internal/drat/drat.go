// Package drat certifies UNSAT answers. The CDCL solver in internal/sat
// can log its clausal derivation (original clauses, learned clauses with
// the IDs of their antecedents, deletions) through the sat.Proof
// interface; this package records that log as a Certificate and
// re-checks it from scratch. The check is LRAT-style (Cruz-Filipe, Heule,
// Hunt, Kaufmann and Schneider-Kamp, CADE 2017): each lemma is verified
// by unit propagation over its hints alone, the clauses the solver says
// it resolved, on top of a persistent top-level propagation of the live
// database, so checking costs about the size of the hinted clauses
// rather than a propagation over the whole database per lemma. The hints
// are untrusted: a hint that does not propagate, names a clause the
// lemma may not use, or leaves the chain without a conflict fails the
// step, and nothing falls back to a full search. The checker shares no
// code with the solver — no watched literals, no conflict analysis, no
// activity heuristics are trusted — so a bug in the solver's search
// cannot also hide in the check.
//
// Denali's optimality claim ("K−1 cycles are provably insufficient")
// rests entirely on the solver's UNSAT answers; a checked certificate
// turns that from "the solver said so" into a machine-verifiable proof.
//
// Proofs round-trip through drat-trim's textual format (one clause per
// line, "d" prefix for deletions, 0 terminated), so certificates can also
// be exported and re-checked with an external drat-trim. The export
// carries no hints, so a parsed proof is plain DRAT: drat-trim, or the
// test-only RUP reference in internal/drat/dratref, checks it, not Check.
package drat

import "repro/internal/sat"

// Clause is a DIMACS-style clause: each literal is a 1-based variable
// index, negative for negated. The zero literal never appears.
type Clause []int

// Step is one line of a hinted proof: a clause addition (which the
// checker verifies by walking its hints) or a clause deletion.
type Step struct {
	// Del marks a deletion step.
	Del bool
	// Lits is the clause; empty with Del=false is the empty clause,
	// completing a refutation.
	Lits Clause
	// Hints are refs to earlier clauses of the same certificate: r > 0
	// names Formula[r−1] and r < 0 names Steps[−r−1]. An addition's
	// hints are its antecedents in propagation order, the last one the
	// conflict; a deletion's one hint names the clause it deletes.
	// Parsed DRAT text carries none.
	Hints []int32
}

// Certificate is a self-contained refutation: the original clause
// database (the premises) plus the hinted derivation steps ending in the
// empty clause. Check replays it independently of the solver that
// produced it.
type Certificate struct {
	// Vars is the number of variables (largest index referenced).
	Vars int
	// Formula is the original clause database, in insertion order.
	Formula []Clause
	// Assumed holds extra unit premises, one literal each, that follow
	// Formula: the assumption a solver refuted incrementally (see
	// Recorder.Snapshot). Check, Stats and WriteDIMACS include them.
	Assumed Clause
	// Steps is the derivation.
	Steps []Step
	// Closed marks a derivation whose final step, the empty clause, is
	// implied rather than stored: a snapshot shares its step list with
	// the solver's later proof, so the list cannot end in it. Check
	// verifies it after Steps; Stats and Proof include it.
	Closed bool
}

// Check replays the certificate and returns nil if it is a valid
// refutation of Formula plus Assumed: every addition follows from its
// hints, every deletion names its clause, and the empty clause is
// derived (see the package function Check).
func (c *Certificate) Check() error {
	return check(c.Formula, c.Assumed, c.Steps, c.Closed)
}

// Proof returns the complete derivation: Steps, plus the empty clause
// when Closed. Only a closed certificate pays for a copy.
func (c *Certificate) Proof() []Step {
	if !c.Closed {
		return c.Steps
	}
	return append(c.Steps[:len(c.Steps):len(c.Steps)], Step{})
}

// Recorder accumulates a Certificate from a solver run. It implements
// sat.Proof: attach with
//
//	rec := drat.NewRecorder()
//	s := sat.New()
//	s.Proof = rec
//
// before adding clauses; after Solve returns Unsat, rec.Certificate()
// holds the refutation, and after an Unsat under assumptions
// rec.Snapshot(assumptions...) does. The recorder copies every clause
// (the solver permutes literal slices in place) and every hint list into
// shared chunks rather than one slice per clause, translating the
// solver's clause IDs into certificate refs, and is not goroutine-safe,
// matching the solver's single-goroutine Proof contract.
type Recorder struct {
	vars    int
	formula []Clause
	steps   []Step
	// refs maps a solver clause ID (its index + 1) to the ref of the
	// premise or step it was logged as.
	refs []int32
	// chunk and hintChunk are the literal and hint storage new steps are
	// carved from; a full chunk stays alive through the steps that point
	// into it.
	chunk     []int
	hintChunk []int32
	// refuted is set once the solver logs the empty clause.
	refuted bool
}

// recorderChunk is the literal (and hint) capacity of one recorder chunk.
const recorderChunk = 1 << 14

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

var _ sat.Proof = (*Recorder)(nil)

func (r *Recorder) convert(lits []sat.Lit) Clause {
	if cap(r.chunk)-len(r.chunk) < len(lits) {
		r.chunk = make([]int, 0, max(recorderChunk, len(lits)))
	}
	at := len(r.chunk)
	for _, l := range lits {
		r.chunk = append(r.chunk, r.dimacs(l))
	}
	return r.chunk[at:len(r.chunk):len(r.chunk)]
}

// dimacs renders a solver literal in DIMACS form, tracking Vars.
func (r *Recorder) dimacs(l sat.Lit) int {
	d := l.Var() + 1
	if d > r.vars {
		r.vars = d
	}
	if l.IsNeg() {
		d = -d
	}
	return d
}

// hintSlice carves room for n refs out of the shared hint chunk.
func (r *Recorder) hintSlice(n int) []int32 {
	if cap(r.hintChunk)-len(r.hintChunk) < n {
		r.hintChunk = make([]int32, 0, max(recorderChunk, n))
	}
	at := len(r.hintChunk)
	r.hintChunk = r.hintChunk[:at+n]
	return r.hintChunk[at : at+n : at+n]
}

// ref translates a solver clause ID into a certificate ref. An ID the
// solver never logged becomes 0, which names nothing, so the checker
// rejects it instead of the recorder trusting it.
func (r *Recorder) ref(id int32) int32 {
	if id < 1 || int(id) > len(r.refs) {
		return 0
	}
	return r.refs[id-1]
}

// Input records one original problem clause.
func (r *Recorder) Input(lits []sat.Lit) {
	r.formula = append(r.formula, r.convert(lits))
	r.refs = append(r.refs, int32(len(r.formula)))
}

// Learn records one derived clause and its hints.
func (r *Recorder) Learn(lits []sat.Lit, hints []int32) {
	hs := r.hintSlice(len(hints))
	for i, id := range hints {
		hs[i] = r.ref(id)
	}
	r.steps = append(r.steps, Step{Lits: r.convert(lits), Hints: hs})
	r.refs = append(r.refs, -int32(len(r.steps)))
	if len(lits) == 0 {
		r.refuted = true
	}
}

// Delete records one clause deletion.
func (r *Recorder) Delete(lits []sat.Lit, id int32) {
	hs := r.hintSlice(1)
	hs[0] = r.ref(id)
	r.steps = append(r.steps, Step{Del: true, Lits: r.convert(lits), Hints: hs})
}

// Certificate returns everything recorded so far. The certificate shares
// the recorder's storage; record nothing further after taking it (use
// Snapshot for a solver that keeps going).
func (r *Recorder) Certificate() *Certificate {
	return &Certificate{Vars: r.vars, Formula: r.formula, Steps: r.steps}
}

// Snapshot returns the refutation of the clauses recorded so far under
// the unit premises assumed — for a solver that has just answered Unsat
// under those assumptions — closed by the empty clause. It copies
// neither the premise list nor the step list: the certificate views
// their current prefixes, which later recording never changes, so a
// recorder serving many incremental solves hands out each refutation in
// O(1) while the solver keeps running.
func (r *Recorder) Snapshot(assumed ...sat.Lit) *Certificate {
	c := &Certificate{
		Formula: r.formula[:len(r.formula):len(r.formula)],
		Steps:   r.steps[:len(r.steps):len(r.steps)],
		Closed:  !r.refuted,
	}
	if len(assumed) > 0 {
		c.Assumed = make(Clause, len(assumed))
		for i, l := range assumed {
			c.Assumed[i] = r.dimacs(l)
		}
	}
	c.Vars = r.vars
	return c
}

// Stats summarizes a certificate for reporting.
type Stats struct {
	Vars      int
	Formula   int // premise clauses
	Additions int
	Deletions int
}

// Stats counts the certificate's premises (Assumed units included) and
// steps (the implied empty clause of a Closed certificate included).
func (c *Certificate) Stats() Stats {
	st := Stats{Vars: c.Vars, Formula: len(c.Formula) + len(c.Assumed)}
	for _, s := range c.Steps {
		if s.Del {
			st.Deletions++
		} else {
			st.Additions++
		}
	}
	if c.Closed {
		st.Additions++
	}
	return st
}
