// Package schedule implements Denali's satisfiability phase (section 6 of
// the paper): given a saturated E-graph, an architecture description and a
// cycle budget K, it formulates in propositional logic the question
//
//	does a K-cycle program of the target architecture compute the
//	values of the goal terms?
//
// and decodes a satisfying assignment into a concrete schedule (cycle,
// functional unit, instruction, operands, destination register).
//
// The encoding follows the paper with the refinements of section 7:
//
//   - launch variables U(m,i,u): machine term m is launched at the start of
//     cycle i on functional unit u (per-unit launch variables subsume the
//     paper's L and A variables and model multiple issue directly);
//   - availability variables B(q,i,c): the value of equivalence class q is
//     available on cluster c by the end of cycle i, with the cross-cluster
//     bypass delay of the EV6's two register files;
//   - operand modes: a load may fold a constant-offset address into its
//     displacement field, and operate instructions may use small constants
//     as literal operands, so a machine term can have several alternative
//     operand requirements ("one more bit for the solver to determine");
//   - guard-safety ordering, and load-before-overwriting-store ordering
//     for memory anti-dependences.
package schedule

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/arch"
	"repro/internal/drat"
	"repro/internal/egraph"
	"repro/internal/gma"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/semantics"
	"repro/internal/term"
)

// Options configures problem construction.
type Options struct {
	// Desc is the machine description (required).
	Desc *arch.Description
	// DisableAtMostOncePerTerm drops the pruning constraint that each
	// machine term launches at most once (ablation; the constraint is not
	// needed for correctness). Commuted operand twins share one machine
	// term, so the pruning applies per instruction: add64(a,b) and
	// add64(b,a) together launch at most once.
	DisableAtMostOncePerTerm bool
	// MaxConflicts bounds each SAT probe; 0 means unbounded.
	MaxConflicts int64
	// Certify attaches a DRAT proof recorder to the solver — a scratch
	// Problem's or an Engine's. When a probe answers Unsat, Stat.Cert
	// holds the recorded refutation, which internal/drat can re-check
	// independently of the solver.
	Certify bool
	// Trace records this one compilation's encode, solve and decode
	// spans; nil disables it.
	Trace *obs.Trace
	// RequestID names the compile request this problem belongs to; when
	// set it is stamped into exported DIMACS provenance comments so an
	// instance pulled out of a production log can be traced back to its
	// flight report. Callers must sanitize externally supplied IDs
	// (flight.SanitizeID) before they reach provenance comments.
	RequestID string
}

// mode is one alternative operand form for a machine term.
type mode struct {
	// reqs are the classes that must be available before launch; needs
	// are those of them (canonical) that are not already in registers on
	// entry, the ones the encoding has to schedule.
	reqs  []egraph.ClassID
	needs []egraph.ClassID
	// base and disp describe a folded load/store address (base register
	// class plus displacement); base is -1 when the address class is
	// used directly.
	base egraph.ClassID
	disp int64
}

// mterm is a machine term: a node of the E-graph whose operator some
// instruction can compute, plus scheduling metadata.
type mterm struct {
	node    egraph.NodeID
	class   egraph.ClassID
	op      arch.OpInfo
	latency int
	args    []egraph.ClassID
	modes   []mode
	// constVal is set for ldiq pseudo-terms materializing a constant.
	constVal uint64
	isConst  bool
	// lits maps argument index -> literal value for operands encoded as
	// literals rather than registers.
	lits map[int]uint64
}

func (m *mterm) describe(g *egraph.Graph) string {
	if m.isConst {
		return fmt.Sprintf("ldiq %d", m.constVal)
	}
	return g.TermOf(egraph.ClassID(m.node)).String()
}

// Problem is a single K-cycle scheduling question.
type Problem struct {
	G     *egraph.Graph
	Desc  *arch.Description
	GMA   *gma.GMA
	K     int
	opt   Options
	terms []*mterm
	// cone is every class the schedule may need to compute.
	cone map[egraph.ClassID]bool
	// coneList is the cone in deterministic (discovery) order: map
	// iteration order would otherwise vary variable numbering and clause
	// order run to run, making solver behaviour — and every conflict
	// count reported by the benchmarks — irreproducible.
	coneList []egraph.ClassID
	// inputAvail marks classes available in registers on entry.
	inputAvail map[egraph.ClassID]bool
	goals      []egraph.ClassID
	guard      egraph.ClassID
	hasGuard   bool
	missAddrs  map[egraph.ClassID]bool

	solver    *sat.Solver
	proof     *drat.Recorder
	bClusters int

	// Variable tables. They are dense and laid out with stride window,
	// the K the problem was encoded with: Engine.SolveBudget narrows K to
	// the probed budget for decode, but the layout keeps the window's.
	// Absent entries are -1.
	window  int
	nUnits  int
	uVar    []int32 // launch U(m,i,u) at ((mi*window)+i)*nUnits+u
	modeVar []int32 // first mode variable of term mi; modes are consecutive
	bVar    []int32 // availability B(q,i,c) at ((coneIdx[q]*window)+i)*bClusters+c
	coneIdx []int32 // class -> position in coneList, -1 outside the cone
	buf     []sat.Lit
	tailBuf []sat.Lit

	// layered marks the budget-layered encoding used by Engine: K is a
	// window upper bound rather than the probed budget, launches beyond a
	// probe's budget are switched off through the eVar chain, and the
	// goal clauses are guarded by per-budget selector literals so "budget
	// ≤ k" is a solver assumption instead of being baked into the CNF.
	layered bool
	// eVar[i] ("cycle-end i enabled") is true when the budget grants at
	// least i+1 cycles; eVar[i] implies eVar[i-1], so refuting one
	// cycle-end switches off every later one.
	eVar []int
	// selVar[k] is the "budget ≤ k" selector assumed by a probe at k:
	// it forces ¬eVar[k] (for k < K) and requires every goal to be
	// available by end of cycle k-1.
	selVar []int
	// unitGroups, issueGroups and termGroups keep the layered encoding's
	// cardinality-group tails — per (cycle, unit) at i*nUnits+u, per
	// cycle, per term — for extend.
	unitGroups, issueGroups, termGroups groupTails
}

// Stat describes one SAT probe, mirroring the numbers the paper reports
// (e.g. "1639 variables and 4613 clauses for the 4-cycle refutation").
// Solver carries the solver's full search statistics — conflicts,
// decisions, propagations, learned clauses, restarts — not just the
// problem size. For a one-shot Problem these are the probe's own
// numbers; for an Engine probe they are the per-call deltas of the
// persistent solver (Vars/Clauses stay window-sized totals), so summing
// Stat.Solver across probes never double-counts.
type Stat struct {
	K            int
	Vars         int
	Clauses      int
	Result       sat.Result
	Solver       sat.Stats
	MachineTerms int
	ConeClasses  int
	// Incremental marks a probe answered by a persistent Engine under a
	// budget assumption; Reused additionally marks that the engine's
	// solver had already answered an earlier probe, so learned clauses
	// and variable activity carried over into this one.
	Incremental bool
	Reused      bool
	// Cert is the recorded DRAT refutation when Options.Certify was set
	// and the probe answered Unsat; nil otherwise. It is set for scratch
	// probes and for Engine probes alike: an Engine's certificate refutes
	// its window's clauses (with the committed ¬sel_j units) plus the
	// probed selector as a unit premise, and shares its storage with the
	// engine's later proof, so taking it costs O(1) (see
	// Engine.SolveBudget and core.certifyOptimality).
	Cert *drat.Certificate
	// Encode is the time an Engine probe spent growing the window before
	// solving; zero for scratch probes, whose encode precedes Solve.
	Encode time.Duration
}

// UncomputableError reports a goal (sub)class that no machine instruction
// sequence can produce — usually a missing axiom or an operator outside the
// machine's repertoire.
type UncomputableError struct {
	Term string
}

func (e *UncomputableError) Error() string {
	return fmt.Sprintf("schedule: class %s has no machine computation", e.Term)
}

// NewProblem builds the propositional constraint system for budget K.
func NewProblem(g *egraph.Graph, gm *gma.GMA, K int, opt Options) (*Problem, error) {
	return newProblem(g, gm, K, opt, false)
}

// newProblem builds either the classic baked-K encoding (layered=false)
// or the budget-layered window encoding Engine probes against.
func newProblem(g *egraph.Graph, gm *gma.GMA, K int, opt Options, layered bool) (*Problem, error) {
	if opt.Desc == nil {
		return nil, fmt.Errorf("schedule: Options.Desc is required")
	}
	p := &Problem{
		layered:    layered,
		G:          g,
		Desc:       opt.Desc,
		GMA:        gm,
		K:          K,
		opt:        opt,
		cone:       map[egraph.ClassID]bool{},
		inputAvail: map[egraph.ClassID]bool{},
		missAddrs:  map[egraph.ClassID]bool{},
	}
	p.bClusters = 1
	if p.Desc.CrossClusterDelay > 0 {
		p.bClusters = p.Desc.NumClusters
	}
	tr := opt.Trace
	sp := tr.Start("encode", obs.Tint("window", int64(K)))
	if err := p.setup(); err != nil {
		sp.End(obs.T("error", err.Error()))
		return nil, err
	}
	p.encode()
	sp.End(obs.Tint("terms", int64(len(p.terms))), obs.Tint("cone", int64(len(p.cone))),
		obs.Tint("vars", int64(p.solver.NumVars())), obs.Tint("clauses", int64(p.solver.NumClauses())))
	return p, nil
}

// clusterOf maps a unit to its availability-cluster index.
func (p *Problem) clusterOf(u arch.Unit) int {
	if p.bClusters == 1 {
		return 0
	}
	return p.Desc.Units[u].Cluster
}

// xdelay is the extra delay for cluster c to see a result produced on
// cluster pc.
func (p *Problem) xdelay(pc, c int) int {
	if pc == c {
		return 0
	}
	return p.Desc.CrossClusterDelay
}

func (p *Problem) setup() error {
	g := p.G
	for _, in := range p.GMA.Inputs {
		p.inputAvail[g.Find(g.AddTerm(term.NewVar(in)))] = true
	}
	for _, m := range p.GMA.MemoryVars {
		p.inputAvail[g.Find(g.AddTerm(term.NewVar(m)))] = true
	}
	// The Alpha zero register makes the constant 0 free.
	p.inputAvail[g.Find(g.AddTerm(term.NewConst(0)))] = true
	for _, a := range p.GMA.MissAddrs {
		p.missAddrs[g.Find(g.AddTerm(a))] = true
	}
	// Goal classes.
	seenGoal := map[egraph.ClassID]bool{}
	addGoal := func(t *term.Term) {
		c := g.Find(g.AddTerm(t))
		if !seenGoal[c] {
			seenGoal[c] = true
			p.goals = append(p.goals, c)
		}
	}
	if p.GMA.Guard != nil {
		c := g.Find(g.AddTerm(p.GMA.Guard))
		p.guard = c
		p.hasGuard = true
		if !seenGoal[c] {
			seenGoal[c] = true
			p.goals = append(p.goals, c)
		}
	}
	for _, v := range p.GMA.Values {
		addGoal(v)
	}
	// Build the cone and machine terms.
	// termSeen dedups machine terms by class, operator and canonical
	// arguments, so each instruction gets one set of launch variables;
	// the key is built in a reused buffer and looked up without
	// allocating.
	termSeen := map[string]bool{}
	var key []byte
	var visit func(q egraph.ClassID) error
	visit = func(q egraph.ClassID) error {
		q = g.Find(q)
		if p.cone[q] || p.inputAvail[q] {
			return nil
		}
		p.cone[q] = true
		p.coneList = append(p.coneList, q)
		if v, isConst := g.ConstValue(q); isConst {
			ldiq, _ := p.Desc.Op("ldiq")
			p.terms = append(p.terms, &mterm{
				node: -1, class: q, op: ldiq, latency: ldiq.Latency,
				modes: []mode{{base: -1}}, constVal: v, isConst: true,
			})
			return nil
		}
		found := false
		for _, id := range g.ClassNodes(q) {
			n := g.Node(id)
			if n.Kind != term.App {
				continue
			}
			op, isMachine := p.Desc.Op(n.Op)
			if !isMachine {
				continue
			}
			args := g.CanonArgs(id)
			key = p.termKey(key[:0], q, n.Op, args)
			if termSeen[string(key)] {
				found = true
				continue
			}
			termSeen[string(key)] = true
			mt, err := p.buildMterm(id, q, op, args)
			if err != nil {
				return err
			}
			p.terms = append(p.terms, mt)
			found = true
			for _, m := range mt.modes {
				for _, r := range m.reqs {
					if err := visit(r); err != nil {
						return err
					}
				}
			}
		}
		if !found {
			return &UncomputableError{Term: g.TermOf(q).String()}
		}
		return nil
	}
	for _, q := range p.goals {
		if err := visit(q); err != nil {
			return err
		}
	}
	if p.hasGuard && p.GMA.ProtectLoads {
		if err := visit(p.guard); err != nil {
			return err
		}
	}
	// Stable order for determinism.
	sort.Slice(p.terms, func(i, j int) bool {
		if p.terms[i].class != p.terms[j].class {
			return p.terms[i].class < p.terms[j].class
		}
		return p.terms[i].node < p.terms[j].node
	})
	for _, mt := range p.terms {
		for k := range mt.modes {
			md := &mt.modes[k]
			for _, rq := range md.reqs {
				if rq = g.Find(rq); !p.inputAvail[rq] {
					md.needs = append(md.needs, rq)
				}
			}
		}
	}
	return nil
}

// termKey appends the identity of the instruction op(args) computing
// class q to key. The commutativity axioms put both operand orders of a
// commutative op in one class; when both operands are registers the two
// orders are one instruction, so the key lists them in ascending class
// order and only the node met first gets launch variables. With a
// constant operand both orders stay: only the second operand slot takes
// a literal (arch.OpInfo.LitArg), so add64(a,5) can be one addq where
// add64(5,a) needs 5 in a register. The class is part of the key
// because twins the axiom never merged (a saturation cut short) compute
// different classes.
func (p *Problem) termKey(key []byte, q egraph.ClassID, op string, args []egraph.ClassID) []byte {
	key = strconv.AppendInt(key, int64(q), 10)
	key = append(key, ' ')
	key = append(key, op...)
	if w, _ := semantics.LookupWordOp(op); w.Commutative && len(args) == 2 && args[0] > args[1] {
		_, c0 := p.G.ConstValue(args[0])
		_, c1 := p.G.ConstValue(args[1])
		if !c0 && !c1 {
			swapped := [2]egraph.ClassID{args[1], args[0]}
			args = swapped[:]
		}
	}
	for _, a := range args {
		key = append(key, ' ')
		key = strconv.AppendInt(key, int64(a), 10)
	}
	return key
}

// buildMterm computes the operand modes of a machine term.
func (p *Problem) buildMterm(id egraph.NodeID, q egraph.ClassID, op arch.OpInfo, args []egraph.ClassID) (*mterm, error) {
	g := p.G
	mt := &mterm{node: id, class: q, op: op, latency: op.Latency, args: args}
	switch op.Class {
	case arch.ClassLoad, arch.ClassStore:
		memCls := args[0]
		addrCls := args[1]
		if op.Class == arch.ClassLoad && p.missAddrs[g.Find(addrCls)] {
			mt.latency = p.Desc.MissLatency
		}
		var common []egraph.ClassID
		if !p.inputAvail[g.Find(memCls)] {
			common = append(common, memCls)
		}
		if op.Class == arch.ClassStore {
			common = append(common, args[2])
		}
		// Address modes: direct, plus folded base+displacement forms.
		addModes := func(base egraph.ClassID, disp int64) {
			m := mode{base: base, disp: disp}
			m.reqs = append(m.reqs, common...)
			m.reqs = append(m.reqs, base)
			mt.modes = append(mt.modes, m)
		}
		if v, isConst := g.ConstValue(addrCls); isConst && p.Desc.FitsDisplacement(v) {
			// Absolute address via the zero register.
			m := mode{base: -1, disp: int64(v)}
			m.reqs = append(m.reqs, common...)
			mt.modes = append(mt.modes, m)
		} else {
			addModes(addrCls, 0)
			type folded struct {
				base egraph.ClassID
				disp int64
			}
			seen := map[folded]bool{{g.Find(addrCls), 0}: true}
			for _, nid := range g.ClassNodes(addrCls) {
				n := g.Node(nid)
				if n.Kind != term.App || n.Op != "add64" || len(n.Args) != 2 {
					continue
				}
				as := g.CanonArgs(nid)
				for i := 0; i < 2; i++ {
					c, isConst := g.ConstValue(as[i])
					if !isConst || !p.Desc.FitsDisplacement(c) {
						continue
					}
					base := as[1-i]
					if _, baseConst := g.ConstValue(base); baseConst {
						continue
					}
					key := folded{g.Find(base), int64(c)}
					if seen[key] {
						continue
					}
					seen[key] = true
					addModes(base, int64(c))
				}
			}
		}
	default:
		m := mode{base: -1}
		for i, a := range args {
			if v, isConst := g.ConstValue(a); isConst && i == op.LitArg && p.Desc.FitsLiteral(v) {
				if mt.lits == nil {
					mt.lits = map[int]uint64{}
				}
				mt.lits[i] = v
				continue
			}
			m.reqs = append(m.reqs, a)
		}
		mt.modes = []mode{m}
	}
	return mt, nil
}

// launchVar is the launch variable U(m,i,u), or -1 when term mi cannot
// launch at cycle i on unit u.
func (p *Problem) launchVar(mi, i int, u arch.Unit) int {
	return int(p.uVar[(mi*p.window+i)*p.nUnits+int(u)])
}

// modeVarOf is the variable selecting operand mode k of a multi-mode term.
func (p *Problem) modeVarOf(mi, k int) int { return int(p.modeVar[mi]) + k }

// availVar is the availability variable B(q,i,c) of cone class q.
func (p *Problem) availVar(q egraph.ClassID, i, c int) int {
	return int(p.bVar[(int(p.coneIdx[q])*p.window+i)*p.bClusters+c])
}

// addClause adds a clause built in the reused literal buffer (as
// append(p.buf[:0], ...)) and keeps the buffer's grown capacity for the
// next one; the solver copies the literals.
func (p *Problem) addClause(lits []sat.Lit) {
	p.buf = lits[:0]
	p.solver.AddClause(lits...)
}

// firstNew is the first launch cycle of term mt whose launch completes
// at or after cycle lo — the launches a window extension from lo adds
// (every launch when lo is 0).
func firstNew(mt *mterm, lo int) int {
	if lo == 0 {
		return 0
	}
	return max(0, lo-mt.latency+1)
}

// allocVars numbers the launch, mode and availability variables of
// cycles lo..hi-1, in the order the solver allocates them: every term's
// new launches (cycle-major, then its units) followed, on the first
// call, by its modes, then every cone class's new availability
// (cycle-major, then cluster). The tables are re-laid out with stride hi,
// keeping every earlier entry. The first call also sizes the solver for
// the whole encoding (see size).
func (p *Problem) allocVars(lo, hi int) {
	s := p.solver
	first := p.modeVar == nil
	if first {
		p.window, p.nUnits = hi, len(p.Desc.Units)
		vars, clauses := p.size()
		// Rows average about three literals in this encoding: mostly binary
		// at-most-one clauses, plus long availability rows.
		s.Reserve(vars, clauses, 3*clauses)
	}
	p.window = hi
	nU := p.nUnits
	uVar := make([]int32, len(p.terms)*hi*nU)
	for i := range uVar {
		uVar[i] = -1
	}
	for mi := range p.terms {
		copy(uVar[mi*hi*nU:], p.uVar[mi*lo*nU:(mi+1)*lo*nU])
	}
	p.uVar = uVar
	if first {
		p.modeVar = make([]int32, len(p.terms))
	}
	for mi, mt := range p.terms {
		for i := firstNew(mt, lo); i+mt.latency <= hi; i++ {
			for _, u := range mt.op.Units {
				p.uVar[(mi*hi+i)*nU+int(u)] = int32(s.NewVar())
			}
		}
		if !first {
			continue
		}
		p.modeVar[mi] = -1
		if len(mt.modes) > 1 {
			p.modeVar[mi] = int32(s.NewVar())
			for k := 1; k < len(mt.modes); k++ {
				s.NewVar()
			}
		}
	}
	if first {
		p.coneIdx = make([]int32, p.G.NumNodes())
		for i := range p.coneIdx {
			p.coneIdx[i] = -1
		}
		for qi, q := range p.coneList {
			p.coneIdx[q] = int32(qi)
		}
	}
	bc := p.bClusters
	bVar := make([]int32, len(p.coneList)*hi*bc)
	for qi := range p.coneList {
		copy(bVar[qi*hi*bc:], p.bVar[qi*lo*bc:(qi+1)*lo*bc])
		for j := (qi*hi + lo) * bc; j < (qi+1)*hi*bc; j++ {
			bVar[j] = int32(s.NewVar())
		}
	}
	p.bVar = bVar
}

// size counts what encode emits, so the solver is allocated once. The
// variable count is exact except for the issue-width counters
// (constraint 4). The clause count covers the layering and constraints
// 1, 2, 3, 5 and 6; the rarer guard and memory rows (7, 8) and the
// issue-width rows grow the solver on demand.
func (p *Problem) size() (vars, clauses int) {
	K := p.K
	avail := len(p.coneList) * K * p.bClusters
	vars, clauses = avail, avail
	perSlot := make([]int, K*p.nUnits) // launch candidates per (cycle, unit)
	for _, mt := range p.terms {
		launches := 0
		for i := 0; i+mt.latency <= K; i++ {
			for _, u := range mt.op.Units {
				perSlot[i*p.nUnits+int(u)]++
				launches++
			}
		}
		vars += launches
		if len(mt.modes) > 1 {
			vars += len(mt.modes)
			clauses += launches
		}
		for _, md := range mt.modes {
			clauses += launches * len(md.needs)
		}
		if !p.opt.DisableAtMostOncePerTerm {
			v, c := sat.AtMostOneSize(launches)
			vars, clauses = vars+v, clauses+c
		}
		if p.layered {
			clauses += launches
		}
	}
	for _, n := range perSlot {
		v, c := sat.AtMostOneSize(n)
		vars, clauses = vars+v, clauses+c
	}
	clauses += len(p.goals)
	if p.layered {
		vars += 2*K + 1
		clauses += 3*K - 1 + len(p.goals)*K
	}
	return vars, clauses
}

// encode builds the CNF.
func (p *Problem) encode() {
	s := sat.New()
	s.MaxConflicts = p.opt.MaxConflicts
	if p.opt.Certify {
		// Attach before the first AddClause so the certificate's premise
		// set is the complete clause database.
		p.proof = drat.NewRecorder()
		s.Proof = p.proof
	}
	p.solver = s
	p.allocVars(0, p.K)
	p.encodeCycles(0, p.K)
}

// extend grows a layered problem's window from p.K to hi cycles in
// place: it appends the new cycles' variables and clauses to the same
// solver and never modifies or removes an existing clause, so learned
// clauses stay valid and the grown CNF asks every budget the same
// question a window-hi encoding would.
func (p *Problem) extend(hi int) {
	lo := p.K
	p.K = hi
	p.allocVars(lo, hi)
	p.encodeCycles(lo, hi)
}

// groupTails records the tails (see sat.AtMostKTail) of one family of
// cardinality groups in a single slice, so a window extension can add
// members to a group without re-encoding it. Group g's tail is
// lits[span[g][0]:span[g][1]].
type groupTails struct {
	lits []sat.Lit
	span [][2]int32
}

// atMost bounds group g of family t — its earlier members, summarized by
// their tail, plus members — by k. Only the layered encoding keeps
// tails: a scratch problem never grows.
func (p *Problem) atMost(t *groupTails, g int, members []sat.Lit, k int) {
	if !p.layered {
		p.solver.AtMostK(members, k)
		return
	}
	for len(t.span) <= g {
		t.span = append(t.span, [2]int32{})
	}
	lits := members
	if sp := t.span[g]; sp[1] > sp[0] {
		lits = append(append(p.tailBuf[:0], t.lits[sp[0]:sp[1]]...), members...)
		p.tailBuf = lits[:0]
	}
	start := len(t.lits)
	t.lits = p.solver.AtMostKTail(t.lits, lits, k)
	t.span[g] = [2]int32{int32(start), int32(len(t.lits))}
}

// encodeCycles emits every constraint the cycles lo..hi-1 add to a
// window of lo cycles: the whole encoding when lo is 0, a window
// extension otherwise. A launch belongs to the new cycles when it
// completes in them (see firstNew), so a long-latency launch at an old
// cycle is new once its completion fits.
func (p *Problem) encodeCycles(lo, hi int) {
	s := p.solver
	K := hi
	selLo := len(p.selVar) // the first selector these cycles add
	if p.layered {
		// Budget layering over the window K: every structural constraint
		// below is emitted once for the whole window; which prefix of it
		// is actually usable is controlled by the eVar chain, and each
		// probe's "budget ≤ k" enters as the assumption selVar[k].
		for i := lo; i < K; i++ {
			v := s.NewVar()
			// "Enabled" is the permissive polarity: a branched-off eVar
			// tightens the budget below what the probe asked for and sends
			// the solver into a self-inflicted refutation, so seed (and
			// keep, across heuristic resets) the positive phase.
			s.SetPhase(v, true)
			p.eVar = append(p.eVar, v)
		}
		for k := selLo; k <= K; k++ {
			p.selVar = append(p.selVar, s.NewVar())
		}
		// Monotone chain: enabling cycle-end i enables every earlier one,
		// so a single ¬eVar[k] switches off cycle-ends k..K-1.
		for i := max(lo, 1); i < K; i++ {
			s.AddClause(sat.Neg(p.eVar[i]), sat.Pos(p.eVar[i-1]))
		}
		// A launch occupies cycle-ends up to its completion: launching at
		// cycle i with latency L needs cycle-end i+L-1 enabled. Under the
		// assumption selVar[k] this forces off exactly the launches the
		// classic K=k encoding would not have variables for.
		for mi, mt := range p.terms {
			for i := firstNew(mt, lo); i+mt.latency <= K; i++ {
				for _, u := range mt.op.Units {
					s.AddClause(sat.Neg(p.launchVar(mi, i, u)), sat.Pos(p.eVar[i+mt.latency-1]))
				}
			}
		}
		// The window's old top selector gains its ¬eVar row here too.
		for k := lo; k < K; k++ {
			s.AddClause(sat.Neg(p.selVar[k]), sat.Neg(p.eVar[k]))
		}
		// Budget monotonicity as a selector chain: a k-cycle program is also
		// a (k+1)-cycle program, so sel_k -> sel_{k+1} is sound — the weaker
		// budget's goal rows are implied and ¬eVar[k] already propagates
		// ¬eVar[k+1..] off the chain above. The payoff is the contrapositive:
		// once a refuted budget is committed as the unit ¬sel_{k}, every
		// earlier selector is forced off too, so a probe below a refutation
		// starts with the whole dead prefix propagated instead of relearned.
		// These chain clauses are the only positive selector occurrences,
		// which is what lets a refutation's certificate carry the committed
		// ¬sel_j units as premises (see core.certifyOptimality).
		for k := lo; k+1 <= K; k++ {
			s.AddClause(sat.Neg(p.selVar[k]), sat.Pos(p.selVar[k+1]))
		}
	}

	// 1. Availability definition: B(q,i,c) -> some launch completes a
	// machine term of q visible on cluster c by end of cycle i. The terms
	// computing each class are indexed once, in term order.
	byClass := map[egraph.ClassID][]int{}
	for mi, mt := range p.terms {
		c := p.G.Find(mt.class)
		byClass[c] = append(byClass[c], mi)
	}
	for _, q := range p.coneList {
		producers := byClass[p.G.Find(q)]
		for i := lo; i < K; i++ {
			for c := 0; c < p.bClusters; c++ {
				lits := append(p.buf[:0], sat.Neg(p.availVar(q, i, c)))
				for _, mi := range producers {
					mt := p.terms[mi]
					for j := 0; j+mt.latency <= K; j++ {
						for _, u := range mt.op.Units {
							if j+mt.latency-1+p.xdelay(p.clusterOf(u), c) <= i {
								lits = append(lits, sat.Pos(p.launchVar(mi, j, u)))
							}
						}
					}
				}
				p.addClause(lits)
			}
		}
	}

	// 2. Operand availability per launch (and mode).
	for mi, mt := range p.terms {
		multi := len(mt.modes) > 1
		for i := firstNew(mt, lo); i+mt.latency <= K; i++ {
			for _, u := range mt.op.Units {
				uv := p.launchVar(mi, i, u)
				if multi {
					// U -> some mode chosen.
					lits := append(p.buf[:0], sat.Neg(uv))
					for k := range mt.modes {
						lits = append(lits, sat.Pos(p.modeVarOf(mi, k)))
					}
					p.addClause(lits)
				}
				for k, md := range mt.modes {
					for _, rq := range md.needs {
						lits := p.buf[:0]
						if multi {
							lits = append(lits, sat.Neg(p.modeVarOf(mi, k)))
						}
						lits = append(lits, sat.Neg(uv))
						if i > 0 {
							lits = append(lits, sat.Pos(p.availVar(rq, i-1, p.clusterOf(u))))
						}
						p.addClause(lits)
					}
				}
			}
		}
	}

	// 3. Functional unit exclusivity: one launch per (cycle, unit). An
	// extension adds the long-latency launches that now fit to the old
	// cycles' groups and opens groups for the new cycles.
	for i := 0; i < K; i++ {
		for u := range p.Desc.Units {
			lits := p.buf[:0]
			for mi, mt := range p.terms {
				if i+mt.latency > K || i < firstNew(mt, lo) {
					continue
				}
				if v := p.launchVar(mi, i, arch.Unit(u)); v >= 0 {
					lits = append(lits, sat.Pos(v))
				}
			}
			p.buf = lits[:0]
			if i < lo && len(lits) == 0 {
				continue
			}
			p.atMost(&p.unitGroups, i*p.nUnits+u, lits, 1)
		}
	}

	// 4. Issue width (when narrower than the unit count).
	if p.Desc.IssueWidth < len(p.Desc.Units) {
		for i := 0; i < K; i++ {
			lits := p.buf[:0]
			for mi, mt := range p.terms {
				if i+mt.latency > K || i < firstNew(mt, lo) {
					continue
				}
				for _, u := range mt.op.Units {
					lits = append(lits, sat.Pos(p.launchVar(mi, i, u)))
				}
			}
			p.buf = lits[:0]
			if i < lo && len(lits) == 0 {
				continue
			}
			p.atMost(&p.issueGroups, i, lits, p.Desc.IssueWidth)
		}
	}

	// 5. Each machine term launches at most once (pruning).
	if !p.opt.DisableAtMostOncePerTerm {
		for mi, mt := range p.terms {
			lits := p.buf[:0]
			for i := firstNew(mt, lo); i+mt.latency <= K; i++ {
				for _, u := range mt.op.Units {
					lits = append(lits, sat.Pos(p.launchVar(mi, i, u)))
				}
			}
			p.buf = lits[:0]
			if lo > 0 && len(lits) == 0 {
				continue
			}
			p.atMost(&p.termGroups, mi, lits, 1)
		}
	}

	// 6. Goals: every goal class available by end of cycle K-1 (on any
	// cluster — the producing cluster's register file holds it). In the
	// layered encoding the budget is not fixed, so the goal row is
	// emitted once per selector: assuming selVar[k] requires every goal
	// by end of cycle k-1 (and refutes k=0 outright, the counterpart of
	// the classic encoding's empty clause). An extension adds the rows of
	// its new selectors.
	for _, q := range p.goals {
		q = p.G.Find(q)
		if p.inputAvail[q] {
			continue
		}
		if p.layered {
			for k := selLo; k <= K; k++ {
				lits := append(p.buf[:0], sat.Neg(p.selVar[k]))
				if k > 0 {
					for c := 0; c < p.bClusters; c++ {
						lits = append(lits, sat.Pos(p.availVar(q, k-1, c)))
					}
				}
				p.addClause(lits)
			}
			continue
		}
		lits := p.buf[:0]
		if K > 0 {
			for c := 0; c < p.bClusters; c++ {
				lits = append(lits, sat.Pos(p.availVar(q, K-1, c)))
			}
		}
		p.addClause(lits) // empty at K=0: nothing can be computed
	}

	// 7. Guard safety: protected loads launch only after the guard value
	// is available.
	if p.hasGuard && p.GMA.ProtectLoads {
		gq := p.G.Find(p.guard)
		if !p.inputAvail[gq] {
			for mi, mt := range p.terms {
				if mt.op.Class != arch.ClassLoad {
					continue
				}
				for i := firstNew(mt, lo); i+mt.latency <= K; i++ {
					for _, u := range mt.op.Units {
						uv := p.launchVar(mi, i, u)
						if i == 0 {
							s.AddClause(sat.Neg(uv))
							continue
						}
						s.AddClause(sat.Neg(uv), sat.Pos(p.availVar(gq, i-1, p.clusterOf(u))))
					}
				}
			}
		}
	}

	// 8. Memory anti-dependences: a load reading memory state M must
	// launch strictly before any store that overwrites M. An extension
	// adds the pairs with at least one new launch.
	for li, lt := range p.terms {
		if lt.op.Class != arch.ClassLoad {
			continue
		}
		for si, st := range p.terms {
			if st.op.Class != arch.ClassStore {
				continue
			}
			if p.G.Find(lt.args[0]) != p.G.Find(st.args[0]) {
				continue
			}
			for i := 0; i+lt.latency <= K; i++ {
				for j := 0; j+st.latency <= K && j <= i; j++ {
					if i < firstNew(lt, lo) && j < firstNew(st, lo) {
						continue
					}
					for _, lu := range lt.op.Units {
						for _, su := range st.op.Units {
							s.AddClause(sat.Neg(p.launchVar(li, i, lu)), sat.Neg(p.launchVar(si, j, su)))
						}
					}
				}
			}
		}
	}
}

// Solve runs the SAT probe. The returned Stat records the problem size,
// outcome, and the solver's full search statistics whether or not a
// schedule exists.
func (p *Problem) Solve() (*Schedule, Stat, error) {
	sched, stat, err := p.solve(Stat{K: p.K})
	if p.proof != nil && stat.Result == sat.Unsat {
		stat.Cert = p.proof.Certificate()
	}
	return sched, stat, err
}

// solve is the probe body Problem.Solve and Engine.SolveBudget share: one
// solver call under assumps, its telemetry, and on SAT the decoded
// stat.K-cycle schedule. stat arrives with the caller's fields — K, and
// for an engine probe Incremental, Reused and Encode — and leaves with the
// outcome and the solver's numbers: a one-shot Problem's totals, an
// engine probe's per-call deltas. The caller attaches the certificate.
func (p *Problem) solve(stat Stat, assumps ...sat.Lit) (*Schedule, Stat, error) {
	tr := p.opt.Trace
	sp := tr.Start("solve")
	if stat.Incremental {
		sp.SetTag("incremental", "true")
	}
	res := p.solver.Solve(assumps...)
	st := p.solver.Stats()
	if stat.Incremental {
		st = p.solver.LastStats()
	}
	if st.Cancelled {
		sp.SetTag("cancelled", "true")
	}
	sp.End(obs.T("result", res.String()), obs.Tint("conflicts", st.Conflicts))
	stat.Vars, stat.Clauses = st.Vars, st.Clauses
	stat.Result, stat.Solver = res, st
	stat.MachineTerms, stat.ConeClasses = len(p.terms), len(p.cone)
	if res != sat.Sat {
		return nil, stat, nil
	}
	// decode walks launch variables up to p.K; narrow it to the probed
	// budget so the schedule reflects exactly the stat.K-cycle program. An
	// engine's saved model has every out-of-window launch false anyway (the
	// eVar chain forces them off under the assumption), but the narrowing
	// also sets Schedule.K and final-operand availability correctly.
	dsp := tr.Start("decode")
	saved := p.K
	p.K = stat.K
	sched, err := p.decode()
	p.K = saved
	if sched != nil {
		dsp.SetTag("cycles", strconv.Itoa(sched.K))
		dsp.SetTag("instructions", strconv.Itoa(len(sched.Launches)))
	}
	dsp.End()
	return sched, stat, err
}

// WriteDIMACS exports the probe's CNF with self-describing comment lines
// naming the originating GMA, the cycle budget, and the problem size, so
// an exported instance can be rerun against other solvers without losing
// its provenance.
func (p *Problem) WriteDIMACS(w io.Writer) error {
	name := ""
	if p.GMA != nil {
		name = p.GMA.Name
	}
	head := fmt.Sprintf("denali scheduling instance: gma=%s cycle-budget-K=%d", name, p.K)
	if p.opt.RequestID != "" {
		head += " request=" + p.opt.RequestID
	}
	return p.solver.WriteDIMACS(w,
		head,
		fmt.Sprintf("machine-terms=%d cone-classes=%d", len(p.terms), len(p.cone)),
	)
}
