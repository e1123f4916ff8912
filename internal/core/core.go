// Package core is Denali's crucial inner subroutine (Figure 1 of the
// paper): it converts one guarded multi-assignment into near-optimal
// machine code by matching (E-graph saturation with the axiom set) followed
// by satisfiability search over increasing cycle budgets, returning both
// the winning schedule and the refutation evidence that smaller budgets are
// infeasible.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/axioms"
	"repro/internal/drat"
	"repro/internal/egraph"
	"repro/internal/gma"
	"repro/internal/matcher"
	"repro/internal/naivegen"
	"repro/internal/obs"
	"repro/internal/sat"
	"repro/internal/schedule"
	"repro/internal/stoke"
)

// SearchStrategy selects how cycle budgets are probed.
type SearchStrategy int

const (
	// LinearSearch probes K = 0, 1, 2, ... until satisfiable; every
	// smaller budget is refuted along the way, so optimality (relative
	// to the E-graph and machine model) is proved as a side effect.
	LinearSearch SearchStrategy = iota
	// BinarySearch doubles the budget until satisfiable and then binary
	// searches, as sketched in section 1.3 of the paper. It can be
	// faster when the optimum is large, at the cost of probing some
	// larger-K problems.
	BinarySearch
	// DescendSearch starts from an upper bound, the conventional
	// baseline's cycle count (naivegen), and probes downward while
	// satisfiable. Near-optimal SAT probes are usually cheap while the
	// just-infeasible refutations are the hard pigeonhole-like instances,
	// so descending pays the expensive probe only once — the alternative
	// strategy the paper says it has not explored (section 1.3).
	DescendSearch
	// ParallelSearch probes several budgets speculatively on a bounded
	// worker pool (Options.Workers), interrupting probes made moot by a
	// completed answer: an UNSAT at K refutes every smaller budget, a SAT
	// at K obsoletes every larger one. Cycles always matches the
	// sequential strategies; OptimalProven can only be stronger (see
	// parallelSearch).
	ParallelSearch
	// StochasticSearch abandons refutation entirely and runs the
	// STOKE-style MCMC engine (internal/stoke) alone: proposal moves over
	// machine sequences, test-vector screening, exact sim.Verify
	// acceptance. Deterministic in Options.Seed; OptimalProven is never
	// set (the engine proves feasibility, not optimality).
	StochasticSearch
)

// String names the strategy ("linear", "binary", "descend", "parallel",
// "stochastic"), used as the strategy label on process-level metrics.
func (s SearchStrategy) String() string {
	switch s {
	case BinarySearch:
		return "binary"
	case DescendSearch:
		return "descend"
	case ParallelSearch:
		return "parallel"
	case StochasticSearch:
		return "stochastic"
	}
	return "linear"
}

// ParseStrategy resolves a strategy name ("linear", "binary", "descend",
// "parallel", "stochastic") to its SearchStrategy; the empty string means
// linear, the paper's own sweep. It is the single place a strategy name
// is validated: repro.Options.Strategy, the denali -strategy flag,
// serve's per-request "strategy" field and the benchmark harness all
// resolve through it.
func ParseStrategy(name string) (SearchStrategy, error) {
	if name == "" {
		return LinearSearch, nil
	}
	for s := LinearSearch; s <= StochasticSearch; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return LinearSearch, fmt.Errorf("unknown strategy %q (want linear, binary, descend, parallel or stochastic)", name)
}

// Options configures compilation of a GMA.
type Options struct {
	// Desc is the machine description; defaults are not provided — the
	// caller chooses the architecture (e.g. alpha.EV6()).
	Desc *arch.Description
	// Axioms is the axiom set (built-in plus program-local).
	Axioms []*axioms.Axiom
	// Matcher bounds saturation.
	Matcher matcher.Options
	// Schedule configures constraint generation.
	Schedule schedule.Options
	// MaxCycles bounds the search (default 24).
	MaxCycles int
	// Search selects the probing strategy.
	Search SearchStrategy
	// Workers bounds the number of concurrently in-flight SAT probes for
	// ParallelSearch; <= 0 means GOMAXPROCS. Other strategies ignore it.
	Workers int
	// Seed drives every random choice of the stochastic engine, making
	// StochasticSearch runs reproducible. Callers normally derive it from
	// the request ID; 0 is a valid seed.
	Seed uint64
	// RequestID correlates this compilation with the request that asked
	// for it: it tags the compile root span and every detached parallel
	// probe span, and is propagated into Schedule.RequestID so exported
	// DIMACS instances and proof artifacts carry their provenance. Empty
	// disables the tagging.
	RequestID string
	// Trace records the whole pipeline's spans — the compile root span,
	// per-round matcher spans, and one span per SAT probe tagged with its
	// outcome. Nil disables tracing at zero cost; the field is also
	// propagated into Matcher.Trace and Schedule.Trace. Counts are not
	// traced: Compiled carries them.
	Trace *obs.Trace
}

// Probe records one SAT probe with its wall-clock cost.
type Probe struct {
	schedule.Stat
	Elapsed time.Duration
}

// Compiled is the result of compiling one GMA.
type Compiled struct {
	GMA   *gma.GMA
	Graph *egraph.Graph
	// Match reports the saturation statistics.
	Match matcher.Result
	// Probes are the SAT probes in the order performed.
	Probes []Probe
	// Schedule is the winning schedule.
	Schedule *schedule.Schedule
	// Cycles is the winning budget.
	Cycles int
	// OptimalProven reports that every budget below Cycles was refuted
	// (UNSAT), i.e. the schedule is optimal with respect to the E-graph
	// and the machine model.
	OptimalProven bool
	// MatchTime and SolveTime split the pipeline cost, mirroring the
	// paper's "less than 0.3 seconds is spent in the SAT solver".
	MatchTime time.Duration
	SolveTime time.Duration
	// EncodeTime is the constraint-generation cost: every probe engine's
	// up-front window and its in-place extensions. SolveTime excludes it.
	EncodeTime time.Duration
	// Certified reports that the K−1 refutation behind OptimalProven was
	// re-checked as a DRAT proof by the independent checker in
	// internal/drat (vacuously true for a 0-cycle optimum). Only set when
	// Options.Schedule.Certify was on.
	Certified bool
	// CertifyTime is the wall-clock cost of the DRAT check.
	CertifyTime time.Duration
	// CertifyResult is the DRAT check's outcome ("ok", "failed", or
	// "missing" when no proof was recorded) and CertSteps the checked
	// proof's length in addition steps; both zero when no check ran.
	CertifyResult string
	CertSteps     int
	// Cert is the checked refutation certificate, available for export
	// (DIMACS formula + DRAT proof) when Certified and Cycles > 0.
	Cert *drat.Certificate
	// Engine names the engine family that produced Schedule ("sat" or
	// "stochastic"); under StochasticSearch, "sat" marks a GMA that fell
	// back to the descend sweep.
	Engine string
	// Stochastic carries the MCMC engine's run statistics whenever
	// StochasticSearch ran the stochastic engine.
	Stochastic *stoke.Result
}

// ErrNoSchedule is returned when no budget up to MaxCycles admits a
// schedule.
var ErrNoSchedule = errors.New("core: no schedule found within the cycle bound")

// CompileGMA runs the full matching + satisfiability pipeline on one GMA.
func CompileGMA(gm *gma.GMA, opt Options) (*Compiled, error) {
	if opt.Desc == nil {
		return nil, fmt.Errorf("core: Options.Desc is required")
	}
	if err := gm.Validate(); err != nil {
		return nil, err
	}
	if opt.MaxCycles <= 0 {
		opt.MaxCycles = 24
	}
	opt.Schedule.Desc = opt.Desc
	opt.Schedule.RequestID = opt.RequestID
	tr := opt.Trace
	opt.Matcher.Trace = tr
	opt.Schedule.Trace = tr
	rootTags := []obs.Tag{obs.T("gma", gm.Name)}
	if opt.RequestID != "" {
		rootTags = append(rootTags, obs.T("request", opt.RequestID))
	}
	root := tr.Start("compile", rootTags...)
	defer root.End()
	c := &Compiled{GMA: gm, Graph: egraph.New()}
	for _, goal := range gm.Goals() {
		c.Graph.AddTerm(goal)
	}
	// Programmer-trusted facts go in before matching, so axiom clauses
	// (select-store aliasing in particular) can discharge against them.
	for _, as := range gm.Assumes {
		a := c.Graph.AddTerm(as.A)
		b := c.Graph.AddTerm(as.B)
		var err error
		if as.Eq {
			err = c.Graph.Merge(a, b)
		} else {
			err = c.Graph.AssertDistinct(a, b)
		}
		if err != nil {
			return nil, fmt.Errorf("core: assumption %s/%s contradicts: %w", as.A, as.B, err)
		}
	}
	start := time.Now()
	msp := tr.Start("matcher")
	mres, err := matcher.Saturate(c.Graph, opt.Axioms, opt.Matcher)
	msp.End(obs.Tint("nodes", int64(mres.Nodes)), obs.Tint("classes", int64(mres.Classes)))
	if err != nil {
		return nil, err
	}
	c.Match = mres
	c.MatchTime = time.Since(start)

	switch opt.Search {
	case ParallelSearch:
		err = c.parallelSearch(gm, opt)
	case StochasticSearch:
		err = c.stochasticSearch(gm, opt, root)
	default:
		err = c.satSearch(gm, opt)
	}
	if err != nil {
		return c, err
	}
	if opt.Schedule.Certify {
		if err := c.certifyOptimality(opt); err != nil {
			return c, err
		}
	}
	return c, nil
}

// descendSearch probes downward from start, a budget expected to be
// feasible, paying the expensive just-below-optimal refutation exactly
// once. If start turns out infeasible it falls back to searching upward
// from there.
func (c *Compiled) descendSearch(probe probeFunc, maxCycles, start int) error {
	found := false
descend:
	for k := start; k >= 0; k-- {
		sched, res, err := probe(k)
		if err != nil {
			return err
		}
		switch {
		case res == sat.Sat:
			c.Schedule, c.Cycles = sched, k
			found = true
		case found:
			// The first failing budget below a success: optimal if the
			// failure is a proof, merely best-known on a budget timeout.
			c.OptimalProven = res == sat.Unsat
			return nil
		default:
			break descend // start itself failed; search upward instead
		}
	}
	if found {
		c.OptimalProven = true // descended all the way to K=0
		return nil
	}
	for k := start + 1; k <= maxCycles; k++ {
		sched, res, err := probe(k)
		if err != nil {
			return err
		}
		if res == sat.Sat {
			c.Schedule, c.Cycles = sched, k
			c.OptimalProven = false
			return nil
		}
	}
	return ErrNoSchedule
}

// baselineBound is the cycle count of the conventional baseline
// compiler's schedule (naivegen), capped at MaxCycles; MaxCycles when the
// baseline cannot compile the GMA. The baseline's schedule is feasible,
// so the optimum never lies above the bound: descend starts there, and
// linear search, which stops at its first satisfiable budget, never
// probes past it.
func baselineBound(gm *gma.GMA, opt Options) int {
	s, err := naivegen.Compile(gm, opt.Desc)
	if err != nil || s.K > opt.MaxCycles {
		return opt.MaxCycles
	}
	return s.K
}

type probeFunc func(k int) (*schedule.Schedule, sat.Result, error)

// initialWindow sizes the incremental engine's first encoded window,
// given bound, a budget known to be feasible (baselineBound), or
// MaxCycles when none is known. Descend's window is the bound, the first
// budget it probes. Linear walks up from 0 and stops at or below the
// bound, so it encodes min(7, bound) cycles; binary doubles from 1 past
// any bound, so it encodes 8, and parallel, which computes no bound, 7.
// A probe beyond the window grows it in place, so the window only sets
// speed, never an answer. The up-front size shapes the search itself,
// heavily and not monotonically: checksum_loop's K=4 refutation takes
// 7,417, 3,321, 541 and 3,731 lemmas with windows of 5, 6, 7 and 8
// cycles (its bound, 9, keeps it at 7).
func initialWindow(opt Options, bound int) int {
	switch opt.Search {
	case BinarySearch:
		return 8
	case DescendSearch:
		return bound
	}
	return min(7, bound)
}

func (c *Compiled) linearSearch(probe probeFunc, maxCycles int) error {
	allRefuted := true
	for k := 0; k <= maxCycles; k++ {
		sched, res, err := probe(k)
		if err != nil {
			return err
		}
		switch res {
		case sat.Sat:
			c.Schedule = sched
			c.Cycles = k
			c.OptimalProven = allRefuted
			return nil
		case sat.Unknown:
			allRefuted = false
		}
	}
	return ErrNoSchedule
}

func (c *Compiled) binarySearch(probe probeFunc, maxCycles int) error {
	// Phase 1: find a satisfiable upper bound by doubling.
	lo := 0 // all budgets < lo+? unknown; we track the largest refuted+1
	hi := -1
	var hiSched *schedule.Schedule
	certain := true
	for k := 1; k <= maxCycles; k *= 2 {
		sched, res, err := probe(k)
		if err != nil {
			return err
		}
		switch res {
		case sat.Sat:
			hi = k
			hiSched = sched
		case sat.Unsat:
			lo = k + 1
		default:
			certain = false
		}
		if hi >= 0 {
			break
		}
	}
	if hi < 0 {
		// Try the bound itself before giving up.
		sched, res, err := probe(maxCycles)
		if err != nil {
			return err
		}
		if res != sat.Sat {
			return ErrNoSchedule
		}
		hi = maxCycles
		hiSched = sched
	}
	// Phase 2: binary search in [lo, hi].
	for lo < hi {
		mid := (lo + hi) / 2
		sched, res, err := probe(mid)
		if err != nil {
			return err
		}
		switch res {
		case sat.Sat:
			hi = mid
			hiSched = sched
		case sat.Unsat:
			lo = mid + 1
		default:
			certain = false
			lo = mid + 1
		}
	}
	c.Schedule = hiSched
	c.Cycles = hi
	c.OptimalProven = certain
	return nil
}

// Assembly renders the compiled GMA as an annotated assembly listing:
// header comment, register map, and the launched instructions in issue
// order with cycle and functional-unit annotations. For the nop-padded
// Figure 4 form, use Schedule.Listing.
func (c *Compiled) Assembly() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// %s\n", c.GMA)
	fmt.Fprintf(&b, "// Register Map: {")
	// Sorted iteration: the listing must be byte-stable across runs and
	// processes — identical compiles answer identical text.
	inputs := make([]string, 0, len(c.Schedule.InputRegs))
	for name := range c.Schedule.InputRegs {
		inputs = append(inputs, name)
	}
	sort.Strings(inputs)
	for i, name := range inputs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", name, c.Schedule.InputRegs[name])
	}
	b.WriteString("}\n")
	fmt.Fprintf(&b, "%s:\n", sanitizeLabel(c.GMA.Name))
	b.WriteString(c.Schedule.Compact())
	targets := make([]string, 0, len(c.Schedule.ResultRegs))
	for target := range c.Schedule.ResultRegs {
		targets = append(targets, target)
	}
	sort.Strings(targets)
	for _, target := range targets {
		fmt.Fprintf(&b, "    // %s in %s\n", target, c.Schedule.ResultRegs[target])
	}
	if c.GMA.Guard != nil {
		guard := c.Schedule.ResultRegs["<guard>"]
		fmt.Fprintf(&b, "    beq %s, %s\n", guard, exitLabel(c.GMA))
	}
	return b.String()
}

func sanitizeLabel(s string) string {
	if s == "" {
		return "gma"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		}
		return '_'
	}, s)
}

func exitLabel(g *gma.GMA) string {
	if g.ExitLabel != "" {
		return sanitizeLabel(g.ExitLabel)
	}
	return sanitizeLabel(g.Name) + "_exit"
}

// ProbeSummary formats the probe sequence like the paper's report of SAT
// problem sizes ("1639 variables and 4613 clauses for the 4-cycle
// refutation ... 9203 variables and 26415 clauses for the 8-cycle
// solution").
// A probe whose persistent solver carried learned clauses from an earlier
// probe is marked "warm".
func (c *Compiled) ProbeSummary() string {
	var b strings.Builder
	for _, p := range c.Probes {
		mark := ""
		if p.Reused {
			mark = "  warm"
		}
		fmt.Fprintf(&b, "K=%-3d %-7s %6d vars %7d clauses %7d conflicts %10s%s\n",
			p.K, p.Result, p.Vars, p.Clauses, p.Solver.Conflicts, p.Elapsed.Round(time.Microsecond), mark)
	}
	return b.String()
}
