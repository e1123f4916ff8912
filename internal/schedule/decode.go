package schedule

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arch"
	"repro/internal/egraph"
	"repro/internal/gma"
	"repro/internal/term"
)

// Operand is a source operand of a scheduled instruction: a register or a
// small literal.
type Operand struct {
	IsLit bool
	Lit   uint64
	Reg   string
}

func (o Operand) String() string {
	if o.IsLit {
		return fmt.Sprintf("%d", o.Lit)
	}
	return o.Reg
}

// Launch is one scheduled instruction.
type Launch struct {
	Cycle    int
	Unit     arch.Unit
	UnitName string
	// TermOp names the operation in the term language (for execution by
	// the simulator); Mnemonic is the assembly name.
	TermOp   string
	Mnemonic string
	Latency  int
	// Dest is the destination register; empty for stores.
	Dest string
	// Args are the register/literal operands of an operate instruction
	// (or the single literal of a constant materialization).
	Args []Operand
	// IsMem marks loads and stores, which use Base+Disp addressing; Val
	// is the stored value for stores.
	IsMem   bool
	IsLoad  bool
	IsStore bool
	Base    *Operand
	Disp    int64
	Val     *Operand
	// Class is the equivalence class this launch computes.
	Class egraph.ClassID
	// Text is the formatted assembly.
	Text string
}

// Schedule is a decoded K-cycle machine program.
type Schedule struct {
	K        int
	Launches []Launch
	// InputRegs maps GMA input variable names to their registers.
	InputRegs map[string]string
	// ResultRegs maps each register-valued GMA target (and "<guard>"
	// when a guard exists) to the operand holding its final value.
	ResultRegs map[string]Operand
	// MemTargets lists memory-valued targets (updated in place by the
	// scheduled stores).
	MemTargets []string
}

// Instructions returns the number of launched instructions.
func (s *Schedule) Instructions() int { return len(s.Launches) }

// MaxLive estimates the peak number of simultaneously live temporary
// values: a launch's result is live from its completion until the last
// cycle in which another launch reads its destination register (or until
// the end of the program for result registers). The paper's prototype
// ignores register allocation; this figure tells a downstream user whether
// a schedule would actually fit the register file.
func (s *Schedule) MaxLive() int {
	lastUse := map[string]int{}
	use := func(o *Operand, cycle int) {
		if o != nil && !o.IsLit && o.Reg != "" {
			if cycle > lastUse[o.Reg] {
				lastUse[o.Reg] = cycle
			}
		}
	}
	for i := range s.Launches {
		l := &s.Launches[i]
		for a := range l.Args {
			use(&l.Args[a], l.Cycle)
		}
		use(l.Base, l.Cycle)
		use(l.Val, l.Cycle)
	}
	for _, op := range s.ResultRegs {
		o := op
		use(&o, s.K)
	}
	born := map[string]int{}
	for i := range s.Launches {
		l := &s.Launches[i]
		if l.Dest != "" {
			born[l.Dest] = l.Cycle + l.Latency - 1
		}
	}
	peak := 0
	for cyc := 0; cyc <= s.K; cyc++ {
		live := 0
		for reg, b := range born {
			if end, used := lastUse[reg]; used && b <= cyc && cyc <= end {
				live++
			}
		}
		if live > peak {
			peak = live
		}
	}
	return peak
}

// decode reads the SAT model back into a schedule (register assignment,
// operand resolution, assembly text).
func (p *Problem) decode() (*Schedule, error) {
	type launchRec struct {
		mi   int
		i    int
		u    arch.Unit
		mode int
	}
	var recs []launchRec
	for mi, mt := range p.terms {
		modeIdx := 0
		if len(mt.modes) > 1 {
			modeIdx = -1
			for k := range mt.modes {
				if p.solver.Value(p.modeVarOf(mi, k)) {
					modeIdx = k
					break
				}
			}
		}
		for i := 0; i+mt.latency <= p.K; i++ {
			for _, u := range mt.op.Units {
				if p.solver.Value(p.launchVar(mi, i, u)) {
					if modeIdx < 0 {
						return nil, fmt.Errorf("schedule: term %s launched with no mode selected", mt.describe(p.G))
					}
					recs = append(recs, launchRec{mi: mi, i: i, u: u, mode: modeIdx})
				}
			}
		}
	}
	sort.Slice(recs, func(a, b int) bool {
		if recs[a].i != recs[b].i {
			return recs[a].i < recs[b].i
		}
		return recs[a].u < recs[b].u
	})

	sched := &Schedule{K: p.K, InputRegs: map[string]string{}, ResultRegs: map[string]Operand{}}

	// Register assignment: parameters get the Alpha argument registers,
	// temporaries come from a pool. (The paper's prototype ignores
	// register allocation; SSA-style fresh temporaries are enough for
	// straight-line code.)
	regPool := newRegPool()
	for _, in := range p.GMA.Inputs {
		sched.InputRegs[in] = regPool.nextInput()
	}

	// producer bookkeeping: for each class, launches producing it with
	// completion cycle and producing cluster.
	type producer struct {
		done    int // completion cycle (value readable end of this cycle)
		cluster int
		reg     string
		rec     int // index into recs
	}
	producers := map[egraph.ClassID][]producer{}

	launches := make([]Launch, len(recs))
	for ri, r := range recs {
		mt := p.terms[r.mi]
		dest := ""
		if mt.op.Class != arch.ClassStore {
			dest = regPool.nextTemp()
		}
		launches[ri] = Launch{
			Cycle:    r.i,
			Unit:     r.u,
			UnitName: p.Desc.Units[r.u].Name,
			TermOp:   mt.op.TermOp,
			Mnemonic: mt.op.Mnemonic,
			Latency:  mt.latency,
			Dest:     dest,
			Class:    p.G.Find(mt.class),
		}
		if dest != "" {
			producers[p.G.Find(mt.class)] = append(producers[p.G.Find(mt.class)], producer{
				done:    r.i + mt.latency - 1,
				cluster: p.clusterOf(r.u),
				reg:     dest,
				rec:     ri,
			})
		}
	}

	// operandOf resolves the value of class q for a consumer launching at
	// cycle i on cluster c.
	operandOf := func(q egraph.ClassID, i, c int) (Operand, error) {
		q = p.G.Find(q)
		if p.inputAvail[q] {
			if v, ok := p.G.ConstValue(q); ok && v == 0 {
				return Operand{Reg: "$31"}, nil
			}
			for _, id := range p.G.ClassNodes(q) {
				n := p.G.Node(id)
				if n.Kind == term.Var {
					if reg, ok := sched.InputRegs[n.Name]; ok {
						return Operand{Reg: reg}, nil
					}
				}
			}
			return Operand{}, fmt.Errorf("schedule: input class %s has no register", p.G.TermOf(q))
		}
		best := -1
		bestDone := 1 << 30
		for _, pr := range producers[q] {
			avail := pr.done + p.xdelay(pr.cluster, c)
			if avail <= i-1 && avail < bestDone {
				best = pr.rec
				bestDone = avail
			}
		}
		if best < 0 {
			return Operand{}, fmt.Errorf("schedule: class %s not available at cycle %d on cluster %d", p.G.TermOf(q), i, c)
		}
		return Operand{Reg: launches[best].Dest}, nil
	}

	for ri, r := range recs {
		mt := p.terms[r.mi]
		l := &launches[ri]
		c := p.clusterOf(r.u)
		switch mt.op.Class {
		case arch.ClassConst:
			l.Args = []Operand{{IsLit: true, Lit: mt.constVal}}
			l.Text = fmt.Sprintf("%s %s, %d", l.Mnemonic, l.Dest, int64(mt.constVal))
		case arch.ClassLoad, arch.ClassStore:
			l.IsMem = true
			l.IsLoad = mt.op.Class == arch.ClassLoad
			l.IsStore = mt.op.Class == arch.ClassStore
			md := mt.modes[r.mode]
			l.Disp = md.disp
			if md.base >= 0 {
				op, err := operandOf(md.base, r.i, c)
				if err != nil {
					return nil, err
				}
				l.Base = &op
			}
			baseStr := "$31"
			if l.Base != nil {
				baseStr = l.Base.Reg
			}
			if l.IsStore {
				op, err := operandOf(mt.args[2], r.i, c)
				if err != nil {
					return nil, err
				}
				l.Val = &op
				l.Text = fmt.Sprintf("%s %s, %d(%s)", l.Mnemonic, op.Reg, l.Disp, baseStr)
			} else {
				l.Text = fmt.Sprintf("%s %s, %d(%s)", l.Mnemonic, l.Dest, l.Disp, baseStr)
			}
		default:
			args := make([]Operand, len(mt.args))
			for ai := range mt.args {
				if v, ok := mt.lits[ai]; ok {
					args[ai] = Operand{IsLit: true, Lit: v}
					continue
				}
				op, err := operandOf(mt.args[ai], r.i, c)
				if err != nil {
					return nil, err
				}
				args[ai] = op
			}
			l.Args = args
			strs := make([]string, len(args))
			for ai, a := range args {
				strs[ai] = a.String()
			}
			l.Text = fmt.Sprintf("%s %s, %s", l.Mnemonic, strings.Join(strs, ", "), l.Dest)
		}
	}
	sched.Launches = launches

	// Final result locations.
	finalOperand := func(q egraph.ClassID) (Operand, error) {
		q = p.G.Find(q)
		if p.inputAvail[q] {
			return operandOf(q, p.K, 0)
		}
		// Prefer any producer (cluster-independent at end of program).
		best := -1
		bestDone := 1 << 30
		for _, pr := range producers[q] {
			if pr.done < bestDone {
				best = pr.rec
				bestDone = pr.done
			}
		}
		if best >= 0 {
			return Operand{Reg: launches[best].Dest}, nil
		}
		if v, ok := p.G.ConstValue(q); ok {
			return Operand{IsLit: true, Lit: v}, nil
		}
		return Operand{}, fmt.Errorf("schedule: goal class %s has no final location", p.G.TermOf(q))
	}
	for ti, t := range p.GMA.Targets {
		if t.Kind == gma.Memory {
			sched.MemTargets = append(sched.MemTargets, t.Name)
			continue
		}
		q := p.G.Find(p.G.AddTerm(p.GMA.Values[ti]))
		op, err := finalOperand(q)
		if err != nil {
			return nil, err
		}
		sched.ResultRegs[t.Name] = op
	}
	if p.hasGuard {
		op, err := finalOperand(p.guard)
		if err != nil {
			return nil, err
		}
		sched.ResultRegs["<guard>"] = op
	}
	return sched, nil
}

// regPool hands out Alpha registers: $16..$21 for inputs, then temporaries
// from the integer temp registers. Beyond the architectural registers it
// falls back to synthetic names (the prototype ignores register
// allocation, as the paper notes).
type regPool struct {
	nextIn int
	temps  []string
	ti     int
	synth  int
}

func newRegPool() *regPool {
	var temps []string
	for i := 1; i <= 8; i++ {
		temps = append(temps, fmt.Sprintf("$%d", i))
	}
	for i := 22; i <= 25; i++ {
		temps = append(temps, fmt.Sprintf("$%d", i))
	}
	temps = append(temps, "$27", "$28", "$0")
	return &regPool{nextIn: 16, temps: temps}
}

func (r *regPool) nextInput() string {
	if r.nextIn <= 21 {
		reg := fmt.Sprintf("$%d", r.nextIn)
		r.nextIn++
		return reg
	}
	r.synth++
	return fmt.Sprintf("$in%d", r.synth)
}

func (r *regPool) nextTemp() string {
	if r.ti < len(r.temps) {
		reg := r.temps[r.ti]
		r.ti++
		return reg
	}
	r.synth++
	return fmt.Sprintf("$t%d", r.synth)
}

// Listing renders a Figure-4 style listing: one line per issue slot with
// cycle and functional unit annotations, nop-filled.
func (s *Schedule) Listing(d *arch.Description) string {
	var b strings.Builder
	byCycleUnit := map[[2]int]*Launch{}
	for i := range s.Launches {
		l := &s.Launches[i]
		byCycleUnit[[2]int{l.Cycle, int(l.Unit)}] = l
	}
	for cyc := 0; cyc < s.K; cyc++ {
		for u := range d.Units {
			if l, ok := byCycleUnit[[2]int{cyc, u}]; ok {
				fmt.Fprintf(&b, "    %-32s # %d, %s\n", l.Text, cyc, d.Units[u].Name)
			} else {
				fmt.Fprintf(&b, "    %-32s # %d\n", "nop", cyc)
			}
		}
	}
	return b.String()
}

// Compact renders only the launched instructions, in issue order.
func (s *Schedule) Compact() string {
	var b strings.Builder
	for _, l := range s.Launches {
		fmt.Fprintf(&b, "    %-32s # %d, %s\n", l.Text, l.Cycle, l.UnitName)
	}
	return b.String()
}
