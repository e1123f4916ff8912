// Package matcher implements Denali's matching phase (section 5 of the
// paper): it repeatedly instantiates relevant axiom instances in the
// E-graph until a quiescent state is reached in which the graph records all
// relevant instances — and therefore all the ways of computing the goal
// terms that the axiom set can justify.
//
// Beyond plain axiom instantiation the matcher contributes two enrichment
// passes the paper relies on:
//
//   - power-of-two constants: for each constant 2^n in the graph the fact
//     2^n = 2**n is recorded, enabling the shift axioms (the 4 = 2**2 step
//     of Figure 2);
//   - constant-offset distinctions: x and x+c (c a nonzero constant) are
//     asserted uncombinable, which is how literals like p = p+8 are
//     "discovered to be untenable" and deleted from select-store clauses.
//
// Saturation is budgeted (rounds and node count); exceeding a budget
// stops matching early, which is one of the reasons the paper calls
// Denali's output "near-optimal" rather than "optimal".
package matcher

import (
	"fmt"
	"math/bits"

	"repro/internal/axioms"
	"repro/internal/egraph"
	"repro/internal/obs"
	"repro/internal/semantics"
	"repro/internal/term"
)

// Options bound the saturation process.
type Options struct {
	// MaxRounds bounds the number of saturation rounds (default 16).
	MaxRounds int
	// MaxNodes stops saturation when the graph exceeds this many nodes
	// (default 50000).
	MaxNodes int
	// MaxMatchesPerAxiom truncates the per-round match list of a single
	// axiom (default 20000).
	MaxMatchesPerAxiom int
	// DisablePow2 turns off the power-of-two constant enrichment.
	DisablePow2 bool
	// DisableOffsets turns off constant-offset distinctions.
	DisableOffsets bool
	// Trace records one span per saturation round; nil disables it.
	Trace *obs.Trace
}

func (o Options) withDefaults() Options {
	if o.MaxRounds <= 0 {
		o.MaxRounds = 16
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 50000
	}
	if o.MaxMatchesPerAxiom <= 0 {
		o.MaxMatchesPerAxiom = 20000
	}
	return o
}

// Result reports what saturation did.
type Result struct {
	// Rounds is the number of rounds executed.
	Rounds int
	// Instantiations counts axiom instances asserted into the graph.
	Instantiations int
	// Quiescent reports whether a fixpoint was reached within budget.
	Quiescent bool
	// Nodes and Classes are the final graph size.
	Nodes, Classes int
}

// Saturate runs the matching phase over g with the given axioms. When
// opt.Trace is set, each round is recorded as a span tagged with the
// graph's nodes and classes after it and the clauses and instantiations
// it added; a round that ends saturation on a node or round limit also
// carries a budget-exhausted tag naming the limit.
func Saturate(g *egraph.Graph, axs []*axioms.Axiom, opt Options) (Result, error) {
	opt = opt.withDefaults()
	tr := opt.Trace
	s := newSaturation(g, axs, opt)
	res := &s.res
	for round := 1; round <= opt.MaxRounds; round++ {
		res.Rounds = round
		sp := tr.Startf("round %d", round)
		instBefore, clausesBefore := res.Instantiations, g.NumClauses()
		endRound := func() {
			sp.End(obs.Tint("nodes", int64(g.NumNodes())),
				obs.Tint("classes", int64(g.NumClasses())),
				obs.Tint("clauses", int64(g.NumClauses()-clausesBefore)),
				obs.Tint("instantiations", int64(res.Instantiations-instBefore)))
		}
		if !opt.DisablePow2 {
			enrichPow2(g)
		}
		if !opt.DisableOffsets {
			if err := enrichOffsetDistinctions(g); err != nil {
				endRound()
				return *res, err
			}
		}
		nodesBefore, classesBefore := g.NumNodes(), g.NumClasses()
		capped := false
		for i := range axs {
			cut, err := s.apply(i)
			if err != nil {
				return *res, err
			}
			capped = capped || cut
			if g.NumNodes() > opt.MaxNodes {
				break
			}
		}
		if err := g.PropagateClauses(); err != nil {
			endRound()
			return *res, err
		}
		// A round whose match list the cap cut left instances for the
		// next round, even if it changed nothing.
		quiescent := !capped && g.NumNodes() == nodesBefore && g.NumClasses() == classesBefore
		overNodes := !quiescent && g.NumNodes() > opt.MaxNodes
		switch {
		case overNodes:
			sp.SetTag("budget-exhausted", "nodes")
		case !quiescent && round == opt.MaxRounds:
			sp.SetTag("budget-exhausted", "rounds")
		}
		endRound()
		if quiescent {
			res.Quiescent = true
			break
		}
		if overNodes {
			break
		}
	}
	res.Nodes = g.NumNodes()
	res.Classes = g.NumClasses()
	return *res, nil
}

// saturation is the matching state of one Saturate call.
type saturation struct {
	g     *egraph.Graph
	axs   []*axioms.Axiom
	opt   Options
	rules []rule // axs[i] compiled against its trigger patterns
	// done[i] holds the rows of axs[i] that need no second look: the
	// instantiated ones and those that are fully constant or whose
	// conditions are definitely false. Each is keyed on its classes as
	// they were canonical when it was checked.
	done []egraph.RowSet
	rows egraph.RowSet    // the current axiom's matches
	key  []egraph.ClassID // a row re-canonicalized
	env  *semantics.Env   // a condition's variables bound to constants
	res  Result
}

// rule is one axiom compiled against its trigger patterns' slots, so an
// instance is read straight from a match row. The patterns are compiled
// with the saturation; the templates of the terms an instance builds,
// and the slots of its conditions, on the axiom's first row that is not
// fully constant, since most axioms never get one (byteswap4 reaches 17
// of the 86 builtin axioms).
type rule struct {
	pat      *egraph.Pattern
	compiled bool
	lhs, rhs *egraph.Template // Equality and Distinction bodies
	clause   []clauseLit      // a ClauseBody's literals
	conds    []condition
}

type clauseLit struct {
	eq   bool
	a, b *egraph.Template
}

// condition is a side condition with the slot of each of its variables,
// -1 for a variable the patterns do not bind.
type condition struct {
	t     *term.Term
	vars  []string
	slots []int
}

func newSaturation(g *egraph.Graph, axs []*axioms.Axiom, opt Options) *saturation {
	s := &saturation{g: g, axs: axs, opt: opt, env: semantics.NewEnv()}
	s.rules = make([]rule, len(axs))
	s.done = make([]egraph.RowSet, len(axs))
	for i, ax := range axs {
		s.rules[i].pat = egraph.NewPattern(ax.Patterns, ax.VarSet())
		s.done[i].Reset(s.rules[i].pat.Width())
	}
	return s
}

// compile fills in r's templates and condition slots from ax.
func (r *rule) compile(ax *axioms.Axiom) {
	r.compiled = true
	switch ax.Kind {
	case axioms.Equality, axioms.Distinction:
		r.lhs, r.rhs = r.pat.Template(ax.LHS), r.pat.Template(ax.RHS)
	default:
		for _, cl := range ax.Clause {
			r.clause = append(r.clause, clauseLit{cl.Eq, r.pat.Template(cl.A), r.pat.Template(cl.B)})
		}
	}
	for _, c := range ax.Conditions {
		cd := condition{t: c, vars: c.Vars()}
		for _, v := range cd.vars {
			cd.slots = append(cd.slots, r.pat.Slot(v))
		}
		r.conds = append(r.conds, cd)
	}
}

// apply matches axiom i and instantiates, in match order, each of its
// rows that is not done, up to opt.MaxMatchesPerAxiom of them. It
// reports whether that cap cut the list.
func (s *saturation) apply(i int) (capped bool, err error) {
	g, ax, r, done := s.g, s.axs[i], &s.rules[i], &s.done[i]
	g.MatchRows(r.pat, &s.rows)
	kept := 0
	for j := 0; j < s.rows.Len(); j++ {
		row := s.rows.Row(j)
		// Instantiating an earlier row may have merged this row's
		// classes since the search, so the done check canonicalizes
		// them again.
		s.key = s.key[:0]
		for _, c := range row {
			s.key = append(s.key, g.Find(c))
		}
		if done.Has(s.key) {
			continue
		}
		if kept == s.opt.MaxMatchesPerAxiom {
			return true, nil
		}
		kept++
		// Fully-constant instances are redundant with constant folding
		// and, worse, breed fresh constants without bound (0 ->
		// add64(0,0) -> mul64(0,2) -> 2 -> 4 ...).
		if len(row) > 0 && allConstant(g, row) {
			done.Add(s.key)
			continue
		}
		if !r.compiled {
			r.compile(ax)
		}
		condOK, condGround := s.checkConditions(r, row)
		if !condOK {
			if condGround {
				// Definitely false: never revisit.
				done.Add(s.key)
			}
			continue
		}
		done.Add(s.key)
		if err := s.instantiate(ax, r, row); err != nil {
			return false, fmt.Errorf("matcher: instantiating %s: %w", ax.Name, err)
		}
		s.res.Instantiations++
	}
	return false, nil
}

// allConstant reports whether every class of the row holds a constant.
func allConstant(g *egraph.Graph, row []egraph.ClassID) bool {
	for _, cls := range row {
		if _, ok := g.ConstValue(cls); !ok {
			return false
		}
	}
	return true
}

// checkConditions evaluates the rule's side conditions under the row.
// The first result is whether all conditions hold; the second is whether
// the verdict is final (all condition variables were bound to constants).
func (s *saturation) checkConditions(r *rule, row []egraph.ClassID) (ok, ground bool) {
	for _, c := range r.conds {
		for k, slot := range c.slots {
			if slot < 0 {
				return false, false
			}
			w, isConst := s.g.ConstValue(row[slot])
			if !isConst {
				return false, false
			}
			s.env.Words[c.vars[k]] = w
		}
		v, err := semantics.EvalWord(c.t, s.env)
		if err != nil || v == 0 {
			return false, true
		}
	}
	return true, true
}

func (s *saturation) instantiate(ax *axioms.Axiom, r *rule, row []egraph.ClassID) error {
	g := s.g
	switch ax.Kind {
	case axioms.Equality:
		lhs := g.Instantiate(r.lhs, row)
		rhs := g.Instantiate(r.rhs, row)
		return g.Merge(lhs, rhs)
	case axioms.Distinction:
		lhs := g.Instantiate(r.lhs, row)
		rhs := g.Instantiate(r.rhs, row)
		if g.Find(lhs) == g.Find(rhs) {
			return fmt.Errorf("distinction %s contradicted", ax.Name)
		}
		if g.Distinct(lhs, rhs) {
			return nil
		}
		return g.AssertDistinct(lhs, rhs)
	default:
		lits := make([]egraph.Literal, 0, len(r.clause))
		for _, cl := range r.clause {
			a := g.Instantiate(cl.a, row)
			b := g.Instantiate(cl.b, row)
			lits = append(lits, egraph.Literal{Eq: cl.eq, A: a, B: b})
		}
		g.AddClause(lits)
		return nil
	}
}

// enrichPow2 records 2^n = 2**n for every power-of-two constant present in
// the graph, so that the shift axioms can fire (Figure 2's "4 = 2**2").
func enrichPow2(g *egraph.Graph) {
	for _, c := range g.Classes() {
		v, ok := g.ConstValue(c)
		if !ok || v == 0 || v&(v-1) != 0 {
			continue
		}
		n := uint64(bits.TrailingZeros64(v))
		two := g.AddTerm(term.NewConst(2))
		exp := g.AddTerm(term.NewConst(n))
		// Constant folding merges 2**n with the constant automatically.
		g.AddApp("**", []egraph.ClassID{two, exp})
	}
}

// enrichOffsetDistinctions asserts that x and add64(x, c) are distinct for
// every nonzero constant c, and that add64(x, c1) and add64(x, c2) are
// distinct for c1 != c2. This is the arithmetic fact that discharges
// select-store clause literals like p = p+8.
func enrichOffsetDistinctions(g *egraph.Graph) error {
	type baseConst struct {
		base egraph.ClassID
		val  uint64
	}
	offsets := map[baseConst]egraph.ClassID{}
	var pending [][2]egraph.ClassID
	for _, id := range g.NodesWithOp("add64") {
		args := g.CanonArgs(id)
		if len(args) != 2 {
			continue
		}
		nodeCls := g.ClassOf(id)
		for i := 0; i < 2; i++ {
			c, ok := g.ConstValue(args[i])
			if !ok || c == 0 {
				continue
			}
			base := args[1-i]
			if _, baseConstToo := g.ConstValue(base); baseConstToo {
				continue // fully constant; folding handles it
			}
			if !g.Distinct(nodeCls, base) && g.Find(nodeCls) != g.Find(base) {
				pending = append(pending, [2]egraph.ClassID{nodeCls, base})
			}
			offsets[baseConst{g.Find(base), c}] = nodeCls
		}
	}
	// Distinct offsets from the same base are distinct classes.
	byBase := map[egraph.ClassID][]baseConst{}
	for k := range offsets {
		byBase[k.base] = append(byBase[k.base], k)
	}
	for _, ks := range byBase {
		for i := 0; i < len(ks); i++ {
			for j := i + 1; j < len(ks); j++ {
				if ks[i].val == ks[j].val {
					continue
				}
				a, b := offsets[ks[i]], offsets[ks[j]]
				if g.Find(a) != g.Find(b) && !g.Distinct(a, b) {
					pending = append(pending, [2]egraph.ClassID{a, b})
				}
			}
		}
	}
	for _, p := range pending {
		if g.Find(p[0]) == g.Find(p[1]) || g.Distinct(p[0], p[1]) {
			continue
		}
		if err := g.AssertDistinct(p[0], p[1]); err != nil {
			return err
		}
	}
	return nil
}
