package egraph

import (
	"slices"

	"repro/internal/term"
)

// Subst binds pattern variables to equivalence classes.
type Subst map[string]ClassID

// Match finds every substitution θ of the pattern's variables (the names in
// patVars) such that the instance θ(pat) is represented in the graph. This
// is matching modulo equivalence: a sub-pattern matches a node in any node
// of the candidate equivalence class, which is what lets the pattern
// k * 2**n match the term reg6*4 once 4 = 2**2 has been recorded
// (Figure 2 of the paper).
//
// The pattern must be an application. Equal substitutions are reported
// once.
func (g *Graph) Match(pat *term.Term, patVars map[string]bool) []Subst {
	return g.MatchPattern(NewPattern([]*term.Term{pat}, patVars))
}

// MatchSeq matches a sequence of patterns (a multi-pattern) conjunctively,
// threading bindings left to right.
func (g *Graph) MatchSeq(pats []*term.Term, patVars map[string]bool) []Subst {
	return g.MatchPattern(NewPattern(pats, patVars))
}

// Pattern is a multi-pattern compiled for matching: its nodes are laid
// out flat and each pattern variable is resolved to a binding slot, so
// binding and checking a variable are array operations instead of map
// operations on its name. A caller that matches the same patterns round
// after round compiles them once.
type Pattern struct {
	nodes []pnode
	roots []int32  // the top-level patterns, in order
	names []string // the pattern variables, sorted; names[slot]
}

type pnode struct {
	kind term.Kind
	op   string
	word uint64
	name string  // a free (non-pattern) variable's name
	slot int32   // a pattern variable's slot; -1 for a free variable
	args []int32 // argument nodes
}

// NewPattern compiles the multi-pattern pats; the names in patVars are
// its pattern variables, every other variable matches only itself.
func NewPattern(pats []*term.Term, patVars map[string]bool) *Pattern {
	p := &Pattern{}
	slots := map[string]int32{}
	var collect func(t *term.Term)
	collect = func(t *term.Term) {
		if t.Kind == term.Var && patVars[t.Name] {
			slots[t.Name] = 0
		}
		for _, a := range t.Args {
			collect(a)
		}
	}
	for _, t := range pats {
		collect(t)
	}
	for n := range slots {
		p.names = append(p.names, n)
	}
	slices.Sort(p.names)
	for i, n := range p.names {
		slots[n] = int32(i)
	}
	var compile func(t *term.Term) int32
	compile = func(t *term.Term) int32 {
		n := pnode{kind: t.Kind, op: t.Op, word: t.Word, name: t.Name, slot: -1}
		if slot, ok := slots[t.Name]; ok && t.Kind == term.Var {
			n.slot = slot
		}
		for _, a := range t.Args {
			n.args = append(n.args, compile(a))
		}
		p.nodes = append(p.nodes, n)
		return int32(len(p.nodes) - 1)
	}
	for _, t := range pats {
		p.roots = append(p.roots, compile(t))
	}
	return p
}

// Width returns the number of pattern variables: the width of a row of
// this pattern's matches.
func (p *Pattern) Width() int { return len(p.names) }

// Subst returns the substitution that row, one of this pattern's
// matches, binds.
func (p *Pattern) Subst(row []ClassID) Subst {
	s := make(Subst, len(p.names))
	for slot, n := range p.names {
		s[n] = row[slot]
	}
	return s
}

// MatchPattern finds every substitution for the compiled pattern, in the
// order of MatchRows, as maps.
func (g *Graph) MatchPattern(p *Pattern) []Subst {
	var rows RowSet
	g.MatchRows(p, &rows)
	if rows.Len() == 0 {
		return nil
	}
	out := make([]Subst, rows.Len())
	for i := range out {
		out[i] = p.Subst(rows.Row(i))
	}
	return out
}

// MatchRows finds every match of the compiled pattern and leaves them in
// out, which it first resets to the pattern's width. Each distinct match
// is one row: the classes bound to the pattern variables in sorted-name
// order, canonical at match time. Rows come out in search order —
// patterns left to right, candidate nodes in graph order, arguments left
// to right — and a match equal to an earlier one is not recorded again.
func (g *Graph) MatchRows(p *Pattern, out *RowSet) {
	out.Reset(p.Width())
	m := matchState{g: g, p: p, env: make([]ClassID, len(p.names)), out: out}
	for i := range m.env {
		m.env[i] = -1
	}
	m.step(0)
}

// goal is one pending obligation: pattern node n must match class c.
type goal struct {
	n int32
	c ClassID
}

// matchState is one search: a depth-first backtracking walk over an
// explicit stack of pending goals, with the bindings in slots.
type matchState struct {
	g     *Graph
	p     *Pattern
	env   []ClassID // slot -> bound class, -1 while unbound
	goals []goal    // pending goals, the next one last
	out   *RowSet
}

// step continues the search: it discharges the next pending goal, or,
// with none left, starts on top-level pattern i (or records the
// completed match).
func (m *matchState) step(i int) {
	if n := len(m.goals); n > 0 {
		next := m.goals[n-1]
		m.goals = m.goals[:n-1]
		m.matchOne(next.n, next.c, i)
		m.goals = append(m.goals[:n-1], next)
		return
	}
	if i == len(m.p.roots) {
		m.record()
		return
	}
	root := m.p.roots[i]
	pn := &m.p.nodes[root]
	if pn.kind != term.App {
		return
	}
	for _, id := range m.g.byOp[pn.op] {
		if len(m.g.nodes[id].Args) == len(pn.args) {
			m.expand(root, id, i+1)
		}
	}
}

// expand matches node id against application pattern node pi: it pushes
// one goal per argument (the first on top), continues, and pops them.
func (m *matchState) expand(pi int32, id NodeID, i int) {
	n := len(m.goals)
	pargs := m.p.nodes[pi].args
	args := m.g.nodes[id].Args
	for k := len(pargs) - 1; k >= 0; k-- {
		m.goals = append(m.goals, goal{pargs[k], m.g.Find(args[k])})
	}
	m.step(i)
	m.goals = m.goals[:n]
}

// matchOne matches pattern node pi against an equivalence class and
// continues the search once per way it matches.
func (m *matchState) matchOne(pi int32, class ClassID, i int) {
	g := m.g
	pn := &m.p.nodes[pi]
	class = g.Find(class)
	switch pn.kind {
	case term.Const:
		if v, ok := g.ConstValue(class); ok && v == pn.word {
			m.step(i)
		}
	case term.Var:
		if pn.slot >= 0 {
			if bound := m.env[pn.slot]; bound >= 0 {
				if g.Find(bound) == class {
					m.step(i)
				}
				return
			}
			m.env[pn.slot] = class
			m.step(i)
			m.env[pn.slot] = -1
			return
		}
		// A free (non-pattern) variable matches only a class containing
		// that named variable.
		for _, id := range g.ClassNodes(class) {
			n := &g.nodes[id]
			if n.Kind == term.Var && n.Name == pn.name {
				m.step(i)
				return
			}
		}
	default:
		for _, id := range g.ClassNodes(class) {
			n := &g.nodes[id]
			if n.Kind != term.App || n.Op != pn.op || len(n.Args) != len(pn.args) {
				continue
			}
			m.expand(pi, id, i)
		}
	}
}

// record keeps the completed match unless an equal one was already
// found. The slots are the row: every class was canonical when bound, and
// the search merges nothing.
func (m *matchState) record() { m.out.Add(m.env) }

// Instantiate interns the instance of t under substitution s: pattern
// variables become their bound classes, other leaves are interned directly.
func (g *Graph) Instantiate(t *term.Term, s Subst) ClassID {
	switch t.Kind {
	case term.Const:
		return g.addConst(t.Word)
	case term.Var:
		if c, ok := s[t.Name]; ok {
			return g.Find(c)
		}
		return g.addVar(t.Name)
	default:
		args := make([]ClassID, len(t.Args))
		for i, a := range t.Args {
			args[i] = g.Instantiate(a, s)
		}
		return g.AddApp(t.Op, args)
	}
}

// CountComputations returns the number of distinct computations of class c
// representable in the graph, up to the given cap (to bound the inherent
// exponential blowup). A computation chooses one node of the class and,
// recursively, computations of each argument class. Cycles introduced by
// identities such as x = x+0 contribute nothing on the cyclic path.
func (g *Graph) CountComputations(c ClassID, cap int) int {
	return g.countComp(g.Find(c), cap, map[ClassID]bool{})
}

func (g *Graph) countComp(c ClassID, cap int, visiting map[ClassID]bool) int {
	if visiting[c] {
		return 0
	}
	visiting[c] = true
	defer delete(visiting, c)
	total := 0
	for _, id := range g.ClassNodes(c) {
		n := &g.nodes[id]
		if n.Kind != term.App {
			total++ // a leaf is one way
			if total >= cap {
				return cap
			}
			continue
		}
		ways := 1
		for _, a := range n.Args {
			w := g.countComp(g.Find(a), cap, visiting)
			ways *= w
			if ways >= cap {
				ways = cap
				break
			}
			if ways == 0 {
				break
			}
		}
		total += ways
		if total >= cap {
			return cap
		}
	}
	return total
}
