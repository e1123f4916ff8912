package sat

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// recycleCase is a CNF over vars variables, 0-based literals.
type recycleCase struct {
	name    string
	vars    int
	clauses [][]Lit
}

// recycleCases is every CNF in testdata plus PHP(n+1, n) for n = 2…6.
func recycleCases(t testing.TB) []recycleCase {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "*.cnf"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata CNFs: %v", err)
	}
	var cases []recycleCase
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c := recycleCase{name: filepath.Base(path)}
		var cl []Lit
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) == 0 || f[0] == "c" {
				continue
			}
			if f[0] == "p" {
				c.vars, _ = strconv.Atoi(f[2])
				continue
			}
			for _, tok := range f {
				d, err := strconv.Atoi(tok)
				if err != nil {
					t.Fatalf("%s: bad literal %q", path, tok)
				}
				switch {
				case d == 0:
					c.clauses = append(c.clauses, cl)
					cl = nil
				case d > 0:
					cl = append(cl, Pos(d-1))
				default:
					cl = append(cl, Neg(-d-1))
				}
			}
		}
		cases = append(cases, c)
	}
	for n := 2; n <= 6; n++ {
		cases = append(cases, phpCase(n))
	}
	return cases
}

// phpCase is PHP(n+1, n) as a recycleCase.
func phpCase(n int) recycleCase {
	c := recycleCase{name: "php" + strconv.Itoa(n+1) + strconv.Itoa(n), vars: (n + 1) * n}
	p := func(i, j int) int { return i*n + j }
	for i := 0; i <= n; i++ {
		var cl []Lit
		for j := 0; j < n; j++ {
			cl = append(cl, Pos(p(i, j)))
		}
		c.clauses = append(c.clauses, cl)
	}
	for j := 0; j < n; j++ {
		for a := 0; a <= n; a++ {
			for b := a + 1; b <= n; b++ {
				c.clauses = append(c.clauses, []Lit{Neg(p(a, j)), Neg(p(b, j))})
			}
		}
	}
	return c
}

// build adds c's variables and clauses to s.
func (c recycleCase) build(s *Solver) {
	for s.NumVars() < c.vars {
		s.NewVar()
	}
	for _, cl := range c.clauses {
		s.AddClause(cl...)
	}
}

// recycleRun is everything a caller can observe of one case's solves,
// plus the heuristic state they leave behind.
type recycleRun struct {
	Results   []Result
	Stats     []Stats
	LastStats []Stats
	Models    [][]bool
	Cores     [][]Lit
	Proof     [][]Lit

	VarInc, ClaInc float64
	Qhead          int
	Activity       []float64
	ClauseAct      []float64
}

// solveCase builds c on s and solves it twice, first under assumptions
// on its first three variables (so a satisfiable case can fail them and
// report a core), then outright. A nil proof leaves proof logging off.
func solveCase(s *Solver, c recycleCase, proof *logProof) recycleRun {
	if proof != nil {
		s.Proof = proof
	}
	c.build(s)
	var r recycleRun
	for _, assumps := range [][]Lit{{Neg(0), Pos(1), Neg(2)}, nil} {
		res := s.Solve(assumps...)
		r.Results = append(r.Results, res)
		r.Stats = append(r.Stats, s.Stats())
		r.LastStats = append(r.LastStats, s.LastStats())
		if res == Sat {
			r.Models = append(r.Models, s.Model())
		}
		r.Cores = append(r.Cores, slices.Clone(s.Core()))
	}
	if proof != nil {
		r.Proof = proof.steps
	}
	r.VarInc, r.ClaInc, r.Qhead = s.varInc, s.claInc, s.qhead
	r.Activity = slices.Clone(s.activity)
	for _, lc := range s.learned {
		r.ClauseAct = append(r.ClauseAct, s.hdrs[lc].activity)
	}
	return r
}

// dropSpare drops the parked set, so the next New is fresh.
func dropSpare() {
	spare.Lock()
	spare.tables = tables{}
	spare.Unlock()
}

// dirtySolver returns a solver that has been through everything that
// leaves state behind: a top-level unit (qhead past 0), a watch list
// grown past watchSlabMax onto the heap, a refutation under an
// assumption long enough to learn clauses, reduce the database and
// compact the arena, an interrupted solve, a global refutation, and a
// Proof, MaxConflicts and a raised stop flag still attached. The
// returned log is its proof sink.
func dirtySolver(t *testing.T) (*Solver, *logProof) {
	t.Helper()
	const pigeons, holes, spokes = 8, 7, 2 * watchSlabMax
	s := New()
	log := &logProof{}
	s.Proof = log
	g := s.NewVar() // guards the pigeon rows: refuted under the assumption g
	hub := s.NewVar()
	s.AddClause(Pos(s.NewVar()))
	for i := 0; i < spokes; i++ {
		s.AddClause(Pos(hub), Pos(s.NewVar()))
	}
	p := make([][]int, pigeons)
	for i := range p {
		row := []Lit{Neg(g)}
		for j := 0; j < holes; j++ {
			p[i] = append(p[i], s.NewVar())
			row = append(row, Pos(p[i][j]))
		}
		s.AddClause(row...)
	}
	for j := 0; j < holes; j++ {
		for a := 0; a < pigeons; a++ {
			for b := a + 1; b < pigeons; b++ {
				s.AddClause(Neg(p[a][j]), Neg(p[b][j]))
			}
		}
	}
	if cap(s.watches[Pos(hub)]) <= watchSlabMax {
		t.Fatalf("hub watch list has capacity %d, want past watchSlabMax (%d)", cap(s.watches[Pos(hub)]), watchSlabMax)
	}
	if res := s.Solve(Pos(g)); res != Unsat || s.Core() == nil {
		t.Fatalf("guarded PHP(%d,%d) under g: %v, core %v; want Unsat with a core", pigeons, holes, res, s.Core())
	}
	st := s.Stats()
	if st.Learned == 0 || st.Reduced == 0 || len(s.hdrs) >= st.Clauses+st.Learned {
		t.Fatalf("no compaction to recycle: learned %d, reduced %d, %d headers for %d clauses created",
			st.Learned, st.Reduced, len(s.hdrs), st.Clauses+st.Learned)
	}
	s.Interrupt()
	if res := s.Solve(); res != Unknown || !s.LastStats().Cancelled {
		t.Fatalf("interrupted solve: %v, cancelled %v", res, s.LastStats().Cancelled)
	}
	s.ClearInterrupt()
	s.AddClause(Pos(g))
	if res := s.Solve(); res != Unsat || !s.unsat {
		t.Fatalf("guarded PHP with g asserted: %v, want a global Unsat", res)
	}
	s.Interrupt()
	s.MaxConflicts = 1
	if s.qhead == 0 || s.claInc == 1 || s.varInc == 1 {
		t.Fatalf("dirty solver left qhead %d, claInc %g, varInc %g at their defaults", s.qhead, s.claInc, s.varInc)
	}
	return s, log
}

// TestRecycledSolverMatchesFresh: a solver built on the tables of a
// released one answers exactly as a fresh solver does, with the same
// stats, model, core and proof log, and ends in the same heuristic state.
func TestRecycledSolverMatchesFresh(t *testing.T) {
	defer dropSpare()
	for _, c := range recycleCases(t) {
		t.Run(c.name, func(t *testing.T) {
			dropSpare()
			fresh := solveCase(New(), c, &logProof{})

			dirty, dirtyLog := dirtySolver(t)
			arena, logged := unsafe.SliceData(dirty.arena), len(dirtyLog.steps)
			dirty.Release()
			s := New()
			if unsafe.SliceData(s.arena) != arena {
				t.Fatal("New did not hand out the released solver's arena")
			}
			if s.Proof != nil {
				t.Fatal("New handed out a solver with the released solver's Proof attached")
			}
			recycled := solveCase(s, c, &logProof{})
			if len(dirtyLog.steps) != logged {
				t.Fatal("the released solver's proof sink received its successor's clauses")
			}
			if !reflect.DeepEqual(fresh, recycled) {
				for i := range fresh.Results {
					t.Logf("solve %d: fresh %v %+v, recycled %v %+v", i,
						fresh.Results[i], fresh.LastStats[i], recycled.Results[i], recycled.LastStats[i])
				}
				t.Fatalf("recycled solver differs from a fresh one (proof steps %d vs %d, claInc %g vs %g, qhead %d vs %d)",
					len(fresh.Proof), len(recycled.Proof), fresh.ClaInc, recycled.ClaInc, fresh.Qhead, recycled.Qhead)
			}
		})
	}
}

// TestSolverRecycleConcurrent: goroutines building, solving and
// releasing solvers at once, so tables move between goroutines through
// the spare, get the answers a sequential run gets. Run it under
// -race.
func TestSolverRecycleConcurrent(t *testing.T) {
	const workers, cycles = 8, 50
	cases := recycleCases(t)
	cases = cases[:len(cases)-1] // PHP(7,6) is slow under -race and adds nothing here
	want := make([]recycleRun, len(cases))
	for i, c := range cases {
		s := New()
		want[i] = solveCase(s, c, nil)
		s.Release()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				k := (w*cycles + i) % len(cases)
				s := New()
				got := solveCase(s, cases[k], nil)
				s.Release()
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("worker %d cycle %d (%s): answered %v %+v, sequential %v %+v",
						w, i, cases[k].name, got.Results, got.LastStats, want[k].Results, want[k].LastStats)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// chain builds the n-variable implication chain x0 → x1 → … → xn-1 on s,
// reserved for its exact size, and solves it under x0.
func chain(t *testing.T, s *Solver, n int) {
	t.Helper()
	s.Reserve(n, n-1, 2*(n-1))
	for i := 0; i < n; i++ {
		s.NewVar()
	}
	for i := 0; i+1 < n; i++ {
		s.AddClause(Neg(i), Pos(i+1))
	}
	if res := s.Solve(Pos(0)); res != Sat {
		t.Fatalf("%d-variable chain: %v", n, res)
	}
}

// checkCaps fails t if any slice in tb holds more than limit elements of
// capacity.
func checkCaps(t *testing.T, where string, tb tables, limit int) {
	t.Helper()
	v := reflect.ValueOf(tb)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Slice {
			continue
		}
		if c := v.Field(i).Cap(); c > limit {
			t.Errorf("%s: %s has capacity %d, want at most %d", where, v.Type().Field(i).Name, c, limit)
		}
	}
}

// TestReserveDropsIdleTables: a huge solver's released tables serve
// every later solver, and a huge one reuses them after maxIdle-1 small
// solvers in a row, but the maxIdle-th small solver's Reserve drops them,
// so from then on nothing holds them and releases park small tables.
func TestReserveDropsIdleTables(t *testing.T) {
	defer dropSpare()
	dropSpare()
	const huge, small = 50000, 20
	smalls := func(n int) {
		for i := 0; i < n; i++ {
			s := New()
			chain(t, s, small)
			s.Release()
		}
	}
	s := New()
	chain(t, s, huge)
	arena := unsafe.SliceData(s.arena)
	s.Release()

	smalls(maxIdle - 1)
	s = New()
	chain(t, s, huge)
	if unsafe.SliceData(s.arena) != arena {
		t.Fatalf("after %d small solvers, a huge one did not reuse the huge tables", maxIdle-1)
	}
	s.Release()

	smalls(maxIdle - 1)
	s = New()
	chain(t, s, small)
	limit := 4 * 2 * small // four times what the watch and value tables ask for
	checkCaps(t, "the small solver that found the huge tables idle the longest", s.tables, limit)
	s.Release()
	spare.Lock()
	parked := spare.tables
	spare.Unlock()
	checkCaps(t, "spare after its release", parked, limit)
}

// TestReleaseParksOneSet: a release replaces the set parked before it,
// so New hands out the latest released tables once and then none.
func TestReleaseParksOneSet(t *testing.T) {
	defer dropSpare()
	a, b := New(), New()
	chain(t, a, 100)
	chain(t, b, 100)
	latest := unsafe.SliceData(b.arena)
	a.Release()
	b.Release()
	if s := New(); unsafe.SliceData(s.arena) != latest {
		t.Fatal("New did not hand out the latest released solver's tables")
	}
	checkCaps(t, "second New after two releases", New().tables, 0)
}
