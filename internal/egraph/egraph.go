// Package egraph implements the E-graph of section 5 of the Denali paper: a
// term DAG augmented with an equivalence relation on nodes, maintained
// under congruence (the Downey–Sethi–Tarjan closure), together with the
// auxiliary facts the matcher uses — distinctions (pairs of classes
// constrained to be uncombinable) and clauses (disjunctions of equality and
// distinction literals with untenable-literal deletion).
//
// An E-graph of size O(n) represents Θ(2^n) distinct ways of computing a
// term of size n; the matcher saturates it with axiom instances and the
// constraint generator then reads off every candidate computation.
package egraph

import (
	"errors"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/semantics"
	"repro/internal/term"
)

// ClassID identifies an equivalence class. Class identifiers are stable:
// after merges, Find maps a stale identifier to its current canonical
// representative.
type ClassID int32

// NodeID identifies a term node in the graph.
type NodeID int32

// ErrContradiction is returned when a merge or assertion would make the
// equivalence relation inconsistent (merging classes constrained to be
// distinct, or two distinct constants).
var ErrContradiction = errors.New("egraph: contradiction")

// Node is a single term-DAG node. Args hold class identifiers that were
// canonical when the node was last rehashed; call Graph.CanonArgs for the
// current canonical argument classes.
type Node struct {
	Kind term.Kind
	Op   string
	Word uint64
	Name string
	Args []ClassID

	sig string // current hash-cons signature
}

type classInfo struct {
	nodes    []NodeID
	parents  []NodeID
	constVal *uint64
	// distinct lists canonical roots this class must never join. Entries
	// may go stale after merges; Distinct re-canonicalizes.
	distinct []ClassID
}

// Literal is one disjunct of a Clause: an equality or distinction between
// two classes.
type Literal struct {
	Eq   bool
	A, B ClassID
}

// Clause is a disjunction of literals, recorded by the matcher when it
// instantiates a clausal axiom (e.g. the select-store axiom).
type Clause struct {
	Lits []Literal
	done bool
}

// Graph is an E-graph.
type Graph struct {
	nodes   []Node
	parent  []ClassID // union-find; indexed by ClassID == NodeID space
	rank    []int32
	classes map[ClassID]*classInfo
	hash    map[string]NodeID
	byOp    map[string][]NodeID

	clauses []*Clause

	// foldConsts enables constant folding through semantics.FoldWord.
	foldConsts bool

	pendingMerges [][2]ClassID
	pendingFolds  []NodeID

	// instBuf and argBuf are Instantiate's scratch: the class of each
	// template node built so far, and one application's arguments.
	instBuf, argBuf []ClassID
}

// New returns an empty E-graph with constant folding enabled.
func New() *Graph {
	return &Graph{
		classes:    map[ClassID]*classInfo{},
		hash:       map[string]NodeID{},
		byOp:       map[string][]NodeID{},
		foldConsts: true,
	}
}

// SetConstFolding toggles constant folding (on by default).
func (g *Graph) SetConstFolding(on bool) { g.foldConsts = on }

// Clone returns a deep copy sharing no mutable state with the receiver.
// A Graph is never safe for concurrent use — even query methods mutate it
// (Find performs path halving) — so concurrent consumers of a saturated
// graph, such as speculative SAT probes, must each work on their own
// clone. Class and node identifiers are preserved.
func (g *Graph) Clone() *Graph {
	ng := &Graph{
		nodes:         make([]Node, len(g.nodes)),
		parent:        append([]ClassID(nil), g.parent...),
		rank:          append([]int32(nil), g.rank...),
		classes:       make(map[ClassID]*classInfo, len(g.classes)),
		hash:          make(map[string]NodeID, len(g.hash)),
		byOp:          make(map[string][]NodeID, len(g.byOp)),
		foldConsts:    g.foldConsts,
		pendingMerges: append([][2]ClassID(nil), g.pendingMerges...),
		pendingFolds:  append([]NodeID(nil), g.pendingFolds...),
	}
	for i, n := range g.nodes {
		n.Args = append([]ClassID(nil), n.Args...)
		ng.nodes[i] = n
	}
	for c, ci := range g.classes {
		nci := &classInfo{
			nodes:    append([]NodeID(nil), ci.nodes...),
			parents:  append([]NodeID(nil), ci.parents...),
			distinct: append([]ClassID(nil), ci.distinct...),
		}
		if ci.constVal != nil {
			v := *ci.constVal
			nci.constVal = &v
		}
		ng.classes[c] = nci
	}
	for k, v := range g.hash {
		ng.hash[k] = v
	}
	for k, v := range g.byOp {
		ng.byOp[k] = append([]NodeID(nil), v...)
	}
	for _, cl := range g.clauses {
		ng.clauses = append(ng.clauses,
			&Clause{Lits: append([]Literal(nil), cl.Lits...), done: cl.done})
	}
	return ng
}

// NumNodes returns the number of term nodes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumClasses returns the number of equivalence classes.
func (g *Graph) NumClasses() int {
	n := 0
	for c := range g.classes {
		if g.Find(c) == c {
			n++
		}
	}
	return n
}

// Find returns the canonical representative of c's class.
func (g *Graph) Find(c ClassID) ClassID {
	for g.parent[c] != c {
		g.parent[c] = g.parent[g.parent[c]] // path halving
		c = g.parent[c]
	}
	return c
}

// Node returns the node record for id.
func (g *Graph) Node(id NodeID) *Node { return &g.nodes[id] }

// ClassOf returns the canonical class containing node id.
func (g *Graph) ClassOf(id NodeID) ClassID { return g.Find(ClassID(id)) }

// CanonArgs returns the current canonical argument classes of node id.
func (g *Graph) CanonArgs(id NodeID) []ClassID {
	n := &g.nodes[id]
	out := make([]ClassID, len(n.Args))
	for i, a := range n.Args {
		out[i] = g.Find(a)
	}
	return out
}

// ClassNodes returns the nodes in class c.
func (g *Graph) ClassNodes(c ClassID) []NodeID {
	ci := g.classes[g.Find(c)]
	if ci == nil {
		return nil
	}
	return ci.nodes
}

// Classes returns all canonical class representatives, sorted.
func (g *Graph) Classes() []ClassID {
	var out []ClassID
	for c := range g.classes {
		if g.Find(c) == c {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// NodesWithOp returns every node whose operator is op. The returned slice
// is shared; callers must not mutate it.
func (g *Graph) NodesWithOp(op string) []NodeID { return g.byOp[op] }

// ConstValue returns the constant value of class c, if the class contains a
// constant node.
func (g *Graph) ConstValue(c ClassID) (uint64, bool) {
	ci := g.classes[g.Find(c)]
	if ci == nil || ci.constVal == nil {
		return 0, false
	}
	return *ci.constVal, true
}

// signature computes the canonical hash-cons key for a prospective node.
func (g *Graph) signature(kind term.Kind, op string, word uint64, name string, args []ClassID) string {
	var buf [64]byte
	return string(g.appendSignature(buf[:0], kind, op, word, name, args))
}

// appendSignature appends the hash-cons key to b: "#<hex word>" for a
// constant, "$<name>" for a variable, and the operator followed by " <id>"
// per canonical argument class for an application. Lookups hash the
// bytes directly (g.hash[string(b)] does not allocate), so only a node
// that is actually new pays for its key string.
func (g *Graph) appendSignature(b []byte, kind term.Kind, op string, word uint64, name string, args []ClassID) []byte {
	switch kind {
	case term.Const:
		b = append(b, '#')
		b = strconv.AppendUint(b, word, 16)
	case term.Var:
		b = append(b, '$')
		b = append(b, name...)
	default:
		b = append(b, op...)
		for _, a := range args {
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(g.Find(a)), 10)
		}
	}
	return b
}

// AddTerm interns t (recursively) and returns its class.
func (g *Graph) AddTerm(t *term.Term) ClassID {
	switch t.Kind {
	case term.Const:
		return g.addConst(t.Word)
	case term.Var:
		return g.addVar(t.Name)
	default:
		args := make([]ClassID, len(t.Args))
		for i, a := range t.Args {
			args[i] = g.AddTerm(a)
		}
		return g.AddApp(t.Op, args)
	}
}

func (g *Graph) addConst(w uint64) ClassID {
	var buf [32]byte
	sig := g.appendSignature(buf[:0], term.Const, "", w, "", nil)
	if id, ok := g.hash[string(sig)]; ok {
		return g.Find(ClassID(id))
	}
	id := g.newNode(Node{Kind: term.Const, Word: w, sig: string(sig)})
	val := w
	g.classes[ClassID(id)].constVal = &val
	return ClassID(id)
}

func (g *Graph) addVar(name string) ClassID {
	var buf [32]byte
	sig := g.appendSignature(buf[:0], term.Var, "", 0, name, nil)
	if id, ok := g.hash[string(sig)]; ok {
		return g.Find(ClassID(id))
	}
	id := g.newNode(Node{Kind: term.Var, Name: name, sig: string(sig)})
	return ClassID(id)
}

// AddApp interns an application node over the given argument classes and
// returns its class. Constant folding may merge the new class with a
// constant.
func (g *Graph) AddApp(op string, args []ClassID) ClassID {
	var buf [64]byte
	sig := g.appendSignature(buf[:0], term.App, op, 0, "", args)
	if id, ok := g.hash[string(sig)]; ok {
		return g.Find(ClassID(id))
	}
	canon := make([]ClassID, len(args))
	for i, a := range args {
		canon[i] = g.Find(a)
	}
	id := g.newNode(Node{Kind: term.App, Op: op, Args: canon, sig: string(sig)})
	g.byOp[op] = append(g.byOp[op], id)
	for _, a := range canon {
		ci := g.classes[a]
		ci.parents = append(ci.parents, id)
	}
	if g.foldConsts {
		g.pendingFolds = append(g.pendingFolds, id)
		if err := g.rebuild(); err != nil {
			// Folding a fresh node can only merge it with a constant;
			// with consistent semantics this cannot contradict.
			panic(err)
		}
	}
	return g.Find(ClassID(id))
}

func (g *Graph) newNode(n Node) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, n)
	g.parent = append(g.parent, ClassID(id))
	g.rank = append(g.rank, 0)
	g.classes[ClassID(id)] = &classInfo{nodes: []NodeID{id}}
	g.hash[n.sig] = id
	return id
}

// Merge asserts that classes a and b are equal, propagating congruence and
// constant folding. It returns ErrContradiction if the classes are
// constrained to be distinct or hold different constants.
func (g *Graph) Merge(a, b ClassID) error {
	g.pendingMerges = append(g.pendingMerges, [2]ClassID{a, b})
	return g.rebuild()
}

// Distinct reports whether classes a and b are constrained to be distinct,
// either by an explicit distinction or by holding different constants.
func (g *Graph) Distinct(a, b ClassID) bool {
	a, b = g.Find(a), g.Find(b)
	if a == b {
		return false
	}
	ca, cb := g.classes[a], g.classes[b]
	if ca.constVal != nil && cb.constVal != nil && *ca.constVal != *cb.constVal {
		return true
	}
	for _, d := range ca.distinct {
		if g.Find(d) == b {
			return true
		}
	}
	return false
}

// AssertDistinct records that a and b must never be merged.
func (g *Graph) AssertDistinct(a, b ClassID) error {
	a, b = g.Find(a), g.Find(b)
	if a == b {
		return fmt.Errorf("%w: classes already equal", ErrContradiction)
	}
	g.classes[a].distinct = append(g.classes[a].distinct, b)
	g.classes[b].distinct = append(g.classes[b].distinct, a)
	return nil
}

// AddClause records a clause for untenable-literal processing; call
// PropagateClauses to act on it.
func (g *Graph) AddClause(lits []Literal) {
	g.clauses = append(g.clauses, &Clause{Lits: lits})
}

// NumClauses returns the number of recorded (not yet discharged) clauses.
func (g *Graph) NumClauses() int {
	n := 0
	for _, c := range g.clauses {
		if !c.done {
			n++
		}
	}
	return n
}

// PropagateClauses deletes untenable literals from recorded clauses and
// asserts sole surviving literals, iterating to fixpoint. This is the
// mechanism by which, e.g., select(store(M,p,x), p+8) = select(M, p+8)
// gets asserted once p = p+8 is discovered untenable.
func (g *Graph) PropagateClauses() error {
	for changed := true; changed; {
		changed = false
		for _, cl := range g.clauses {
			if cl.done {
				continue
			}
			kept := cl.Lits[:0]
			satisfied := false
			for _, lit := range cl.Lits {
				a, b := g.Find(lit.A), g.Find(lit.B)
				if lit.Eq {
					switch {
					case a == b:
						satisfied = true
					case g.Distinct(a, b):
						// untenable: drop
						changed = true
					default:
						kept = append(kept, lit)
					}
				} else {
					switch {
					case g.Distinct(a, b):
						satisfied = true
					case a == b:
						changed = true
					default:
						kept = append(kept, lit)
					}
				}
				if satisfied {
					break
				}
			}
			if satisfied {
				cl.done = true
				continue
			}
			cl.Lits = kept
			switch len(kept) {
			case 0:
				return fmt.Errorf("%w: clause with no tenable literals", ErrContradiction)
			case 1:
				lit := kept[0]
				cl.done = true
				changed = true
				if lit.Eq {
					if err := g.Merge(lit.A, lit.B); err != nil {
						return err
					}
				} else {
					if err := g.AssertDistinct(lit.A, lit.B); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// rebuild processes pending merges and constant folds until quiescent.
func (g *Graph) rebuild() error {
	for len(g.pendingMerges) > 0 || len(g.pendingFolds) > 0 {
		for len(g.pendingMerges) > 0 {
			m := g.pendingMerges[len(g.pendingMerges)-1]
			g.pendingMerges = g.pendingMerges[:len(g.pendingMerges)-1]
			if err := g.mergeRoots(m[0], m[1]); err != nil {
				return err
			}
		}
		for len(g.pendingFolds) > 0 {
			id := g.pendingFolds[len(g.pendingFolds)-1]
			g.pendingFolds = g.pendingFolds[:len(g.pendingFolds)-1]
			g.tryFold(id)
		}
	}
	return nil
}

func (g *Graph) mergeRoots(a, b ClassID) error {
	a, b = g.Find(a), g.Find(b)
	if a == b {
		return nil
	}
	if g.Distinct(a, b) {
		return fmt.Errorf("%w: merging distinct classes", ErrContradiction)
	}
	if g.rank[a] < g.rank[b] {
		a, b = b, a
	}
	if g.rank[a] == g.rank[b] {
		g.rank[a]++
	}
	// b is absorbed into a.
	g.parent[b] = a
	ca, cb := g.classes[a], g.classes[b]
	delete(g.classes, b)

	if cb.constVal != nil {
		if ca.constVal != nil && *ca.constVal != *cb.constVal {
			return fmt.Errorf("%w: distinct constants %d and %d", ErrContradiction, *ca.constVal, *cb.constVal)
		}
		if ca.constVal == nil {
			ca.constVal = cb.constVal
			// The class became constant: parents may now fold.
			g.pendingFolds = append(g.pendingFolds, ca.parents...)
		}
	}
	ca.nodes = append(ca.nodes, cb.nodes...)
	ca.distinct = append(ca.distinct, cb.distinct...)

	// Rehash parents of the absorbed class; congruent duplicates merge.
	for _, p := range cb.parents {
		n := &g.nodes[p]
		if cur, ok := g.hash[n.sig]; ok && cur == p {
			delete(g.hash, n.sig)
		}
		newSig := g.signature(n.Kind, n.Op, n.Word, n.Name, n.Args)
		n.sig = newSig
		if dup, ok := g.hash[newSig]; ok {
			if g.Find(ClassID(dup)) != g.Find(ClassID(p)) {
				g.pendingMerges = append(g.pendingMerges, [2]ClassID{ClassID(dup), ClassID(p)})
			}
		} else {
			g.hash[newSig] = p
		}
		ca.parents = append(ca.parents, p)
		if g.foldConsts {
			g.pendingFolds = append(g.pendingFolds, p)
		}
	}
	return nil
}

// tryFold folds node id to a constant if all its arguments are constant and
// its operator has pure word semantics.
func (g *Graph) tryFold(id NodeID) {
	if !g.foldConsts {
		return
	}
	n := &g.nodes[id]
	if n.Kind != term.App {
		return
	}
	root := g.Find(ClassID(id))
	if g.classes[root].constVal != nil {
		return // already constant
	}
	args := make([]uint64, len(n.Args))
	for i, a := range n.Args {
		v, ok := g.ConstValue(a)
		if !ok {
			return
		}
		args[i] = v
	}
	v, ok := semantics.FoldWord(n.Op, args)
	if !ok {
		return
	}
	c := g.addConst(v)
	g.pendingMerges = append(g.pendingMerges, [2]ClassID{ClassID(id), c})
}

// HasNode reports whether the graph contains a node structurally equal to
// the (canonicalized) application op(args).
func (g *Graph) HasNode(op string, args []ClassID) (NodeID, bool) {
	var buf [64]byte
	id, ok := g.hash[string(g.appendSignature(buf[:0], term.App, op, 0, "", args))]
	return id, ok
}

// TermOf reconstructs a concrete term for class c, preferring constants,
// then variables, then the first application node (recursively). It is used
// for diagnostics and by the verifier; cycles in the class graph (possible
// after merges like x = x+0) are broken by a visited set, falling back to
// another node in the class.
func (g *Graph) TermOf(c ClassID) *term.Term {
	return g.termOf(g.Find(c), map[ClassID]bool{})
}

func (g *Graph) termOf(c ClassID, visiting map[ClassID]bool) *term.Term {
	ci := g.classes[c]
	if ci == nil {
		return term.NewVar(fmt.Sprintf("<class %d>", c))
	}
	if ci.constVal != nil {
		return term.NewConst(*ci.constVal)
	}
	for _, id := range ci.nodes {
		if g.nodes[id].Kind == term.Var {
			return term.NewVar(g.nodes[id].Name)
		}
	}
	visiting[c] = true
	defer delete(visiting, c)
nodeLoop:
	for _, id := range ci.nodes {
		n := &g.nodes[id]
		args := make([]*term.Term, len(n.Args))
		for i, a := range n.Args {
			ar := g.Find(a)
			if visiting[ar] {
				continue nodeLoop
			}
			args[i] = g.termOf(ar, visiting)
		}
		return term.NewApp(n.Op, args...)
	}
	return term.NewVar(fmt.Sprintf("<class %d>", c))
}

// Stats summarizes the graph for reporting.
type Stats struct {
	Nodes   int
	Classes int
	Clauses int
}

// Stats returns current graph statistics.
func (g *Graph) Stats() Stats {
	return Stats{Nodes: g.NumNodes(), Classes: g.NumClasses(), Clauses: g.NumClauses()}
}
