package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro"
	"repro/internal/arch/alpha"
	"repro/internal/axioms"
	"repro/internal/compilecache"
	"repro/internal/core"
	"repro/internal/drat"
	"repro/internal/egraph"
	"repro/internal/flight"
	"repro/internal/gma"
	"repro/internal/history"
	"repro/internal/lang"
	"repro/internal/matcher"
	"repro/internal/sat"
	"repro/internal/schedule"
)

const (
	// maxCycles and initialWindow mirror core's defaults for the linear
	// search: the budget bound and the incremental engine's first window.
	maxCycles     = 24
	initialWindow = 7
)

// counts are the per-layer work counters of one traced pass.
type counts struct {
	rounds, instantiations, nodes, classes int64
	clauses, rebuilds, probes              int64
	conflicts, propagations, additions     int64
	// trivial counts refutations whose premises hold the empty clause.
	trivial int64
}

// replayer replays compiles stage by stage through each layer's public
// functions, recording a span around every call. Spans under a
// "repro.compile" root are the stages repro.Compile itself runs; spans
// under "replay.offline" exercise the layers around it.
type replayer struct {
	sp      *spans
	certify bool
	cache   *compilecache.Cache
	hist    *history.Warehouse
	n       counts
}

// compile replays repro.Compile(src) with the default linear search and
// returns each GMA's cycles in program order.
func (r *replayer) compile(src string) ([]int, error) {
	root := r.sp.begin("repro.compile", -1, 0)
	defer r.sp.end(root) // no-op once closed below; closes it on errors
	var prog *lang.Program
	var err error
	r.sp.call("lang.parse", root, func() { prog, err = lang.Parse(src) })
	if err != nil {
		return nil, err
	}
	var axs []*axioms.Axiom
	r.sp.call("axioms.load", root, func() { axs, err = axioms.Builtin() })
	if err != nil {
		return nil, err
	}
	axs = append(axs, prog.Axioms...)
	var cycles []int
	var offline []refutation
	var regrown []regrowth
	for _, proc := range prog.Procs {
		for _, g := range proc.GMAs {
			k, q, err := r.compileGMA(root, g, axs, &regrown)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", g.Name, err)
			}
			cycles = append(cycles, k)
			if q != nil {
				offline = append(offline, *q)
			}
		}
	}
	r.sp.end(root)
	off := r.sp.begin("replay.offline", -1, 0)
	defer r.sp.end(off)
	for _, re := range regrown {
		r.sp.call("schedule.reencode", off, func() {
			_, err = schedule.NewEngine(re.graph, re.g, re.window, maxCycles, re.sopt)
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", re.g.Name, err)
		}
	}
	for _, q := range offline {
		if err := r.resolve(off, q); err != nil {
			return nil, fmt.Errorf("%s: %w", q.g.Name, err)
		}
	}
	return cycles, nil
}

// refutation is the K−1 question behind one optimality claim, with its
// certificate once one is recorded and whether the DRAT check ran.
type refutation struct {
	graph   *egraph.Graph
	g       *gma.GMA
	sopt    schedule.Options
	k       int
	cert    *drat.Certificate
	checked bool
}

// compileGMA mirrors core.CompileGMA: saturate a fresh E-graph, walk the
// linear budget ladder on the probe machinery core picks, then (when the
// workload certifies) check the K−1 refutation. It returns the K−1
// refutation behind an optimality claim for the offline stages.
func (r *replayer) compileGMA(root int, g *gma.GMA, axs []*axioms.Axiom, regrown *[]regrowth) (int, *refutation, error) {
	if err := g.Validate(); err != nil {
		return 0, nil, err
	}
	graph := egraph.New()
	for _, goal := range g.Goals() {
		graph.AddTerm(goal)
	}
	for _, as := range g.Assumes {
		a, b := graph.AddTerm(as.A), graph.AddTerm(as.B)
		var err error
		if as.Eq {
			err = graph.Merge(a, b)
		} else {
			err = graph.AssertDistinct(a, b)
		}
		if err != nil {
			return 0, nil, err
		}
	}
	var mres matcher.Result
	var err error
	r.sp.call("matcher.saturate", root, func() { mres, err = matcher.Saturate(graph, axs, matcher.Options{}) })
	if err != nil {
		return 0, nil, err
	}
	r.n.rounds += int64(mres.Rounds)
	r.n.instantiations += int64(mres.Instantiations)
	r.n.nodes += int64(mres.Nodes)
	r.n.classes += int64(mres.Classes)

	sopt := schedule.Options{Desc: alpha.EV6(), Certify: r.certify}
	probe := r.ladder(root, graph, g, sopt, regrown)
	cycles, optimal := -1, true
	certs := map[int]*drat.Certificate{}
	for k := 0; k <= maxCycles && cycles < 0; k++ {
		stat, err := probe(k)
		if err != nil {
			return 0, nil, err
		}
		switch stat.Result {
		case sat.Sat:
			cycles = k
		case sat.Unsat:
			certs[k] = stat.Cert
		default:
			optimal = false
		}
	}
	if cycles < 0 {
		return 0, nil, core.ErrNoSchedule
	}
	if !optimal || cycles == 0 {
		return cycles, nil, nil
	}
	q := &refutation{graph: graph, g: g, sopt: sopt, k: cycles - 1, cert: certs[cycles-1]}
	if r.certify {
		if err := r.check(root, [2]string{"schedule.encode", "schedule.probe"}, q); err != nil {
			return 0, nil, err
		}
	}
	return cycles, q, nil
}

// ladder returns the probe function core's linear search walks: a
// from-scratch Problem per budget for small goals (core.PrefersScratch),
// otherwise one persistent Engine answering budgets as assumptions. When
// a budget outgrows the engine's window, SolveBudget re-encodes a grown
// window inside the probe; the grown window is queued so the replay can
// time an identical encode offline and move that time from probe to
// encode.
func (r *replayer) ladder(root int, graph *egraph.Graph, g *gma.GMA, sopt schedule.Options, regrown *[]regrowth) func(int) (schedule.Stat, error) {
	count := func(stat schedule.Stat, fresh bool) {
		r.n.probes++
		r.n.conflicts += stat.Solver.Conflicts
		r.n.propagations += stat.Solver.Propagations
		if fresh {
			r.n.clauses += int64(stat.Clauses)
		}
	}
	if core.PrefersScratch(g) {
		return func(k int) (schedule.Stat, error) {
			var p *schedule.Problem
			var err error
			r.sp.call("schedule.encode", root, func() { p, err = schedule.NewProblem(graph, g, k, sopt) })
			if err != nil {
				return schedule.Stat{}, err
			}
			var stat schedule.Stat
			r.sp.call("schedule.probe", root, func() { _, stat, err = p.Solve() })
			count(stat, true)
			return stat, err
		}
	}
	var eng *schedule.Engine
	return func(k int) (schedule.Stat, error) {
		fresh := eng == nil
		if fresh {
			var err error
			r.sp.call("schedule.encode", root, func() {
				eng, err = schedule.NewEngine(graph, g, initialWindow, maxCycles, sopt)
			})
			if err != nil {
				return schedule.Stat{}, err
			}
		}
		rebuilds := eng.Rebuilds()
		var stat schedule.Stat
		var err error
		r.sp.call("schedule.probe", root, func() { _, stat, err = eng.SolveBudget(k) })
		if eng.Rebuilds() > rebuilds {
			fresh = true
			r.n.rebuilds++
			*regrown = append(*regrown, regrowth{graph: graph, g: g, sopt: sopt, window: eng.Window()})
		}
		count(stat, fresh)
		return stat, err
	}
}

// regrowth is one window re-encode an Engine did inside a probe.
type regrowth struct {
	graph  *egraph.Graph
	g      *gma.GMA
	sopt   schedule.Options
	window int
}

// check proves and checks a K−1 refutation as core.certifyOptimality
// does: the ladder's own proof-logged certificate when it has one,
// otherwise a proof-logged from-scratch re-solve, then the DRAT check.
func (r *replayer) check(parent int, names [2]string, q *refutation) error {
	if q.cert == nil {
		sopt := q.sopt
		sopt.Certify = true
		var p *schedule.Problem
		var err error
		r.sp.call(names[0], parent, func() { p, err = schedule.NewProblem(q.graph, q.g, q.k, sopt) })
		if err != nil {
			return err
		}
		var stat schedule.Stat
		r.sp.call(names[1], parent, func() { _, stat, err = p.Solve() })
		if err != nil {
			return err
		}
		if r.certify {
			r.n.probes++
			r.n.conflicts += stat.Solver.Conflicts
			r.n.propagations += stat.Solver.Propagations
			r.n.clauses += int64(stat.Clauses)
		}
		if stat.Result != sat.Unsat || stat.Cert == nil {
			return fmt.Errorf("K=%d re-solve answered %v without a certificate", q.k, stat.Result)
		}
		q.cert = stat.Cert
	}
	var err error
	r.sp.call("drat.check", parent, func() { err = q.cert.Check() })
	if err != nil {
		return fmt.Errorf("DRAT check of K=%d: %w", q.k, err)
	}
	r.n.additions += int64(q.cert.Stats().Additions)
	q.checked = true
	return nil
}

// resolve checks the refutation offline if the compile did not, then
// exports its CNF, parses it back and solves it again with the bare SAT
// layer.
func (r *replayer) resolve(parent int, q refutation) error {
	if !q.checked {
		if err := r.check(parent, [2]string{"certify.encode", "certify.probe"}, &q); err != nil {
			return err
		}
	}
	for _, cl := range q.cert.Formula {
		if len(cl) == 0 {
			// sat.ParseDIMACS drops empty clauses, so a premise set that
			// already holds one would re-solve SAT; the refutation is
			// trivial and checked above.
			r.n.trivial++
			return nil
		}
	}
	var cnf bytes.Buffer
	if err := q.cert.WriteDIMACS(&cnf); err != nil {
		return err
	}
	var s *sat.Solver
	var err error
	r.sp.call("sat.parse", parent, func() { s, err = sat.ParseDIMACS(&cnf) })
	if err != nil {
		return err
	}
	var res sat.Result
	r.sp.call("sat.solve", parent, func() { res = s.Solve() })
	if res != sat.Unsat {
		return fmt.Errorf("exported K=%d refutation solved %v", q.k, res)
	}
	return nil
}

// errMiss marks a lookup that was expected to hit a warm cache entry.
var errMiss = errors.New("warm cache key missed")

// requestPath replays the layers a cache hit runs besides compiling:
// keying, the warm lookup, the flight report and the history ingest.
func (r *replayer) requestPath(src string, res *repro.Result, opts repro.Options) error {
	root := r.sp.begin("replay.offline", -1, 0)
	defer r.sp.end(root)
	var keys []repro.KeyedGMA
	var err error
	r.sp.call("compilecache.key", root, func() { keys, err = repro.Keys(src, opts) })
	if err != nil {
		return err
	}
	for _, k := range keys {
		var outcome compilecache.Outcome
		r.sp.call("compilecache.hit", root, func() {
			_, outcome, err = r.cache.GetOrCompute(k.Key, compilecache.ModeUse, func() (compilecache.Entry, error) {
				return compilecache.Entry{}, errMiss
			})
		})
		if err != nil || outcome != compilecache.OutcomeHit {
			return fmt.Errorf("%s: warm lookup answered %q: %v", k.Name, outcome, err)
		}
	}
	rep := flight.NewReport("perfbench")
	for _, proc := range res.Procs {
		for _, g := range proc.GMAs {
			var gr flight.GMAReport
			r.sp.call("flight.report", root, func() { gr = g.FlightReport() })
			rep.GMAs = append(rep.GMAs, gr)
		}
	}
	r.sp.call("history.ingest", root, func() { r.hist.Ingest(rep) })
	return nil
}

// tracePasses runs traced passes over progs until the deadline (at least
// one): per pass an untraced repro.Compile of every program (checked
// answers and the untraced wall), then the stage-by-stage replay, whose
// cycles must equal repro.Compile's, then the request-path layers. It
// reports the median per-pass value of every per-layer metric.
func tracePasses(rep *report, sp *spans, progs []program, opts repro.Options, refs map[string]ref, until time.Time) error {
	r := &replayer{sp: sp, certify: opts.Certify,
		cache: compilecache.New(compilecache.Config{}), hist: history.New(history.Config{})}
	// Fill the cache once so every replayed lookup is a warm hit.
	warm := opts
	warm.Cache = r.cache
	for _, p := range progs {
		if _, err := repro.Compile(p.src, warm); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	per := map[string][]float64{}
	add := func(name string, v float64) { per[name] = append(per[name], v) }
	for pass := 0; pass == 0 || time.Now().Before(until); pass++ {
		r.n = counts{}
		var wall time.Duration
		results := make([]*repro.Result, len(progs))
		for i, p := range progs {
			t0 := time.Now()
			res, err := repro.Compile(p.src, opts)
			wall += time.Since(t0)
			if err == nil {
				err = checkCompiled(refs, res, opts.Certify, int64(pass))
			}
			if err != nil {
				rep.op(fmt.Errorf("%s: %w", p.name, err))
				continue
			}
			results[i] = res
		}
		mark := sp.mark()
		for i, p := range progs {
			if results[i] == nil {
				continue // failed above
			}
			cycles, err := r.compile(p.src)
			if err == nil {
				err = sameCycles(results[i], cycles)
			}
			if err == nil {
				err = r.requestPath(p.src, results[i], opts)
			}
			if err != nil {
				err = fmt.Errorf("%s: %w", p.name, err)
			}
			rep.op(err)
		}
		self := sp.selfTimes(mark)
		traced, attributed := sp.rootTime(mark, "repro.compile")
		// Window regrowths happen inside probes; their offline twins time
		// them, and that time moves from probe to encode.
		self["schedule.encode"] += self["schedule.reencode"]
		self["schedule.probe"] -= self["schedule.reencode"]
		for _, layer := range []string{"lang.parse", "axioms.load", "matcher.saturate",
			"schedule.encode", "schedule.probe", "sat.solve", "drat.check"} {
			add(layer+"_ms", ms(self[layer]))
		}
		add("schedule.clauses_per_ms", ratio(float64(r.n.clauses), ms(self["schedule.encode"])))
		for _, layer := range []string{"compilecache.key", "compilecache.hit", "flight.report", "history.ingest"} {
			add(layer+"_ms", ms(sp.meanDuration(mark, layer)))
		}
		add("repro.other_ms", ms(wall-attributed))
		add("trace.overhead_ratio", ratio(traced.Seconds(), wall.Seconds()))
		for name, v := range map[string]int64{
			"matcher.rounds": r.n.rounds, "matcher.instantiations": r.n.instantiations,
			"egraph.nodes": r.n.nodes, "egraph.classes": r.n.classes,
			"schedule.clauses": r.n.clauses, "schedule.rebuilds": r.n.rebuilds,
			"schedule.probes": r.n.probes, "sat.conflicts": r.n.conflicts,
			"sat.propagations": r.n.propagations, "drat.additions": r.n.additions,
		} {
			add(name, float64(v))
		}
	}
	for _, name := range perLayerOrder {
		if vs, ok := per[name]; ok {
			rep.set(name, perLayerUnit(name), median(vs))
		}
	}
	rep.note("per-layer values are medians over %d traced passes of %d programs; %d trivial refutations per pass not re-solved",
		len(per["repro.other_ms"]), len(progs), r.n.trivial)
	return nil
}

// sameCycles checks the replay against repro.Compile's answer.
func sameCycles(res *repro.Result, cycles []int) error {
	var want []int
	for _, proc := range res.Procs {
		for _, g := range proc.GMAs {
			want = append(want, g.Cycles)
		}
	}
	if fmt.Sprint(want) != fmt.Sprint(cycles) {
		return fmt.Errorf("traced replay found cycles %v, repro.Compile %v", cycles, want)
	}
	return nil
}

// perLayerOrder lists the per-layer metrics in report order.
var perLayerOrder = []string{
	"lang.parse_ms", "axioms.load_ms",
	"matcher.saturate_ms", "matcher.rounds", "matcher.instantiations", "egraph.nodes", "egraph.classes",
	"schedule.encode_ms", "schedule.clauses", "schedule.clauses_per_ms", "schedule.rebuilds",
	"schedule.probe_ms", "schedule.probes", "sat.conflicts", "sat.propagations", "sat.solve_ms",
	"drat.check_ms", "drat.additions",
	"compilecache.key_ms", "compilecache.hit_ms", "flight.report_ms", "history.ingest_ms",
	"repro.other_ms", "trace.overhead_ratio",
}

func perLayerUnit(name string) string {
	switch {
	case name == "schedule.clauses_per_ms":
		return "1/ms"
	case name == "trace.overhead_ratio":
		return "ratio"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	}
	return "count"
}

// ratio is a/b, or 0 when b is 0: a JSON result cannot carry Inf.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// traceCompile is the traced run of a compile workload: the traced
// passes, then one serve stage that posts every program twice (a miss,
// then a hit) to an in-process service.
func traceCompile(cfg config, rep *report, sp *spans, draw func(int64) []program, opts repro.Options) error {
	load, err := setUpCompile(draw, opts, cfg.seed)
	if err != nil {
		return err
	}
	if err := tracePasses(rep, sp, load.progs, opts, load.refs, time.Now().Add(cfg.dur)); err != nil {
		return err
	}
	s, err := startServer()
	if err != nil {
		return err
	}
	defer s.stop()
	var all []answer
	for _, p := range load.progs {
		for i := 0; i < 2; i++ {
			id := sp.begin("serve.request", -1, 1)
			a, err := s.post(p.src, opts.Certify)
			sp.end(id)
			if err == nil {
				err = checkServed(load.refs, a)
			}
			rep.op(err)
			all = append(all, a)
		}
	}
	serveLayers(rep, all)
	return nil
}

func traceKernels(cfg config, rep *report, sp *spans) error {
	return traceCompile(cfg, rep, sp, kernelDraw, repro.Options{})
}

func traceDeep(cfg config, rep *report, sp *spans) error {
	return traceCompile(cfg, rep, sp, deepDraw, repro.Options{Certify: true})
}

// traceServe is serve-zipf's traced run: half the time under the Zipf
// load for the service layers, half in traced passes over the corpus.
func traceServe(cfg config, rep *report, sp *spans) error {
	load, err := setUpServe(cfg.seed, rep)
	if err != nil {
		return err
	}
	all, errs := load.drive(cfg.seed, time.Now().Add(cfg.dur/2), sp)
	load.stop()
	for _, err := range errs {
		rep.op(err)
	}
	serveLayers(rep, all)
	rng := rand.New(rand.NewSource(cfg.seed))
	progs := make([]program, len(serveCorpus))
	for i, p := range serveCorpus {
		progs[i] = program{name: p.name, src: renameCorpus(rng, p.src)}
	}
	return tracePasses(rep, sp, progs, repro.Options{}, load.refs, time.Now().Add(cfg.dur/2))
}
