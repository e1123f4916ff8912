package drat

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sat"
)

// pigeonhole builds PHP(pigeons, holes) on a fresh solver with a
// recorder attached. With pigeons > holes the formula is UNSAT but not
// refutable by unit propagation on the premises alone, so the learned
// steps of the proof are load-bearing.
func pigeonhole(tb testing.TB, pigeons, holes int) (*sat.Solver, *Recorder) {
	tb.Helper()
	s := sat.New()
	rec := NewRecorder()
	s.Proof = rec
	p := make([][]int, pigeons)
	for i := range p {
		p[i] = make([]int, holes)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i < pigeons; i++ {
		lits := make([]sat.Lit, holes)
		for j := 0; j < holes; j++ {
			lits[j] = sat.Pos(p[i][j])
		}
		s.AddClause(lits...)
	}
	for j := 0; j < holes; j++ {
		for a := 0; a < pigeons; a++ {
			for b := a + 1; b < pigeons; b++ {
				s.AddClause(sat.Neg(p[a][j]), sat.Neg(p[b][j]))
			}
		}
	}
	return s, rec
}

func refutation(tb testing.TB, pigeons, holes int) *Certificate {
	tb.Helper()
	s, rec := pigeonhole(tb, pigeons, holes)
	if got := s.Solve(); got != sat.Unsat {
		tb.Fatalf("PHP(%d,%d): Solve = %v, want Unsat", pigeons, holes, got)
	}
	return rec.Certificate()
}

// cloneSteps deep-copies steps, literals and hints alike, so a corruption
// never writes through to the recorder's shared storage.
func cloneSteps(steps []Step) []Step {
	out := make([]Step, len(steps))
	for i, s := range steps {
		out[i] = Step{Del: s.Del, Lits: slices.Clone(s.Lits), Hints: slices.Clone(s.Hints)}
	}
	return out
}

func TestSolverProofChecks(t *testing.T) {
	for _, n := range []int{2, 3, 4, 5} {
		cert := refutation(t, n+1, n)
		if err := cert.Check(); err != nil {
			t.Errorf("PHP(%d,%d): proof rejected: %v", n+1, n, err)
		}
		st := cert.Stats()
		if st.Additions == 0 {
			t.Errorf("PHP(%d,%d): no addition steps recorded", n+1, n)
		}
	}
}

// TestProofDeletionsRecorded solves an instance big enough to trigger
// database reduction, so the certificate exercises deletion steps.
func TestProofDeletionsRecorded(t *testing.T) {
	cert := refutation(t, 8, 7)
	if cert.Stats().Deletions == 0 {
		t.Fatal("reduceDB never fired on PHP(8,7); deletion steps untested")
	}
	if err := cert.Check(); err != nil {
		t.Fatalf("proof with deletions rejected: %v", err)
	}
}

func TestSatInstanceHasNoRefutation(t *testing.T) {
	s, rec := pigeonhole(t, 3, 3)
	if got := s.Solve(); got != sat.Sat {
		t.Fatalf("PHP(3,3): Solve = %v, want Sat", got)
	}
	if err := rec.Certificate().Check(); !errors.Is(err, ErrNoEmptyClause) {
		t.Fatalf("Check on SAT run = %v, want ErrNoEmptyClause", err)
	}
}

// Corruptions of a valid proof must be rejected.

func TestCorruptProofRejected(t *testing.T) {
	cert := refutation(t, 4, 3)
	if err := cert.Check(); err != nil {
		t.Fatalf("baseline proof rejected: %v", err)
	}

	t.Run("truncated before empty clause", func(t *testing.T) {
		// Keep the premises alone and claim the empty clause without
		// hints. Unit propagation cannot refute PHP(4,3), so nothing but
		// the dropped derivation could justify it.
		if err := Check(cert.Formula, []Step{{}}); err == nil {
			t.Fatal("an unhinted empty clause over the bare premises checked")
		}
	})

	t.Run("drop a learned clause", func(t *testing.T) {
		// Dropping any single non-empty addition must never crash, and
		// at least one such drop must break the proof.
		broke := false
		for i := range cert.Steps {
			if cert.Steps[i].Del || len(cert.Steps[i].Lits) == 0 {
				continue
			}
			steps := cloneSteps(cert.Steps)
			steps = append(steps[:i], steps[i+1:]...)
			if Check(cert.Formula, steps) != nil {
				broke = true
			}
		}
		if !broke {
			t.Fatal("every single-step drop still checked; proof has no load-bearing step")
		}
	})

	t.Run("flip a literal", func(t *testing.T) {
		broke := false
		for i := range cert.Steps {
			if cert.Steps[i].Del || len(cert.Steps[i].Lits) == 0 {
				continue
			}
			steps := cloneSteps(cert.Steps)
			steps[i].Lits[0] = -steps[i].Lits[0]
			if Check(cert.Formula, steps) != nil {
				broke = true
				break
			}
		}
		if !broke {
			t.Fatal("flipping literals never broke the proof")
		}
	})

	t.Run("proof against weakened formula", func(t *testing.T) {
		// PHP(4,3) minus its last pigeon constraint is satisfiable, so no
		// refutation of it can be accepted — the empty clause cannot be
		// entailed by a consistent formula.
		weak := cert.Formula[:len(cert.Formula)-1]
		sol := sat.New()
		for _, cl := range weak {
			lits := make([]sat.Lit, len(cl))
			for j, d := range cl {
				v := d
				if v < 0 {
					v = -v
				}
				for sol.NumVars() < v {
					sol.NewVar()
				}
				if d < 0 {
					lits[j] = sat.Neg(v - 1)
				} else {
					lits[j] = sat.Pos(v - 1)
				}
			}
			sol.AddClause(lits...)
		}
		if sol.Solve() != sat.Sat {
			t.Skip("weakened formula not satisfiable; corruption not probative")
		}
		if Check(weak, cert.Steps) == nil {
			t.Fatal("checker accepted a refutation of a satisfiable formula")
		}
	})

	t.Run("hints", func(t *testing.T) {
		for _, c := range hintCorruptions(t) {
			err := Check(c.Formula, c.Steps)
			if err == nil {
				t.Errorf("%s: accepted", c.Name)
				continue
			}
			if step := fmt.Sprintf("drat: step %d:", c.step); !strings.HasPrefix(err.Error(), step) || !strings.Contains(err.Error(), c.why) {
				t.Errorf("%s: %v, want a failure at step %d because %q", c.Name, err, c.step, c.why)
			}
		}
	})
}

// hintCase is a proof whose hints were broken, the step whose check must
// fail, and words of the reason it must give.
type hintCase struct {
	RefCase
	step int
	why  string
}

// hintCorruptions breaks valid proofs' hints every way the checker must
// reject. Most cases edit the first lemma of a PHP(4,3) proof: the
// checker's root there is the solver's top level, empty, so every hint is
// load-bearing, and the lemma is RUP whatever its hints say — emptying
// them shows there is no fallback. PHP(8,7)'s proof deletes clauses, so
// it serves the cases that point a hint at a deletion step, at a deleted
// clause, and a deletion at the wrong clause.
func hintCorruptions(t *testing.T) []hintCase {
	t.Helper()
	php := refutation(t, 4, 3)
	if len(php.Steps) < 2 || php.Steps[0].Del || len(php.Steps[0].Hints) < 3 {
		t.Fatalf("PHP(4,3) proof does not open with a lemma of three or more hints: %+v", php.Steps)
	}
	edit := func(name string, cert *Certificate, i int, why string, f func(h []int32) []int32) hintCase {
		steps := cloneSteps(cert.Steps)
		steps[i].Hints = f(steps[i].Hints)
		return hintCase{RefCase{name, cert.Formula, steps}, i, why}
	}
	retarget := func(name string, cert *Certificate, i int, ref int32, why string) hintCase {
		return edit(name, cert, i, why, func(h []int32) []int32 { h[len(h)-1] = ref; return h })
	}
	const notUnit, noConflict = "is not unit", "without a conflict"
	cases := []hintCase{
		edit("hint dropped", php, 0, notUnit, func(h []int32) []int32 { return h[1:] }),
		edit("conflict hint dropped", php, 0, noConflict, func(h []int32) []int32 { return h[:len(h)-1] }),
		edit("hints reversed", php, 0, notUnit, func(h []int32) []int32 { slices.Reverse(h); return h }),
		edit("hints emptied", php, 0, noConflict, func([]int32) []int32 { return nil }),
		// The chain behind it still ends in a conflict, so only the rule
		// that a non-unit hint fails the step rejects this.
		edit("conflict hint also first", php, 0, notUnit, func(h []int32) []int32 { return append([]int32{h[len(h)-1]}, h...) }),
		retarget("hint to a later step", php, 0, ^int32(1), "later step"),
		retarget("hint to the step itself", php, 0, ^int32(0), "step itself"),
		retarget("hint past the premises", php, 0, int32(len(php.Formula)+1), "out of range"),
		retarget("hint past the steps", php, 0, ^int32(len(php.Steps)), "out of range"),
		retarget("zero hint", php, 0, 0, "out of range"),
	}
	big := refutation(t, 8, 7)
	d := slices.IndexFunc(big.Steps, func(s Step) bool { return s.Del })
	if d < 0 {
		t.Fatal("PHP(8,7) proof deletes nothing")
	}
	j := d + 1
	for j < len(big.Steps) && (big.Steps[j].Del || len(big.Steps[j].Hints) == 0) {
		j++
	}
	if j == len(big.Steps) {
		t.Fatal("PHP(8,7) proof has no hinted lemma after its first deletion")
	}
	return append(cases,
		retarget("hint to a deletion step", big, j, ^int32(d), "deletion step"),
		retarget("hint to a deleted clause", big, j, big.Steps[d].Hints[0], "deleted clause"),
		retarget("deletion of another clause", big, d, 1, "other literals"),
	)
}

// RefCase is one formula and derivation the checker and the RUP
// reference both judge.
type RefCase struct {
	Name    string
	Formula []Clause
	Steps   []Step
}

// solverProofs builds the solver's proofs both checkers must accept: the
// UNSAT corpus, also under shuffled clause order, and PHP(n+1,n) for n =
// 2..7, whose larger instances exercise deletion steps.
func solverProofs(t *testing.T) []RefCase {
	t.Helper()
	var cases []RefCase
	files, err := filepath.Glob(filepath.Join(corpusDir, "*.unsat.cnf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no UNSAT corpus CNFs under %s: %v", corpusDir, err)
	}
	for _, f := range files {
		base := filepath.Base(f)
		vars, clauses := readDIMACS(t, f)
		rng := rand.New(rand.NewSource(int64(len(base))))
		for round := 0; round < 4; round++ {
			_, cert := solveWithProof(vars, clauses)
			cases = append(cases, RefCase{fmt.Sprintf("%s/%d", base, round), clauses, cert.Steps})
			clauses = slices.Clone(clauses)
			rng.Shuffle(len(clauses), func(i, j int) { clauses[i], clauses[j] = clauses[j], clauses[i] })
		}
	}
	for n := 2; n <= 7; n++ {
		cert := refutation(t, n+1, n)
		cases = append(cases, RefCase{fmt.Sprintf("php%d-%d", n+1, n), cert.Formula, cert.Steps})
	}
	return cases
}

// corruptions builds every corruption TestCorruptProofRejected makes:
// of a PHP(4,3) proof, the truncation, each lemma dropped, each lemma
// with a literal flipped and the weakened formula; then every hint
// corruption.
func corruptions(t *testing.T) []RefCase {
	t.Helper()
	var cases []RefCase
	cert := refutation(t, 4, 3)
	steps := cloneSteps(cert.Steps)
	for len(steps) > 0 {
		last := steps[len(steps)-1]
		steps = steps[:len(steps)-1]
		if !last.Del && len(last.Lits) == 0 {
			break
		}
	}
	cases = append(cases, RefCase{"truncated", cert.Formula, append(steps, Step{})})
	for i := range cert.Steps {
		if cert.Steps[i].Del || len(cert.Steps[i].Lits) == 0 {
			continue
		}
		dropped := cloneSteps(cert.Steps)
		dropped = append(dropped[:i], dropped[i+1:]...)
		cases = append(cases, RefCase{fmt.Sprintf("drop%d", i), cert.Formula, dropped})
		flipped := cloneSteps(cert.Steps)
		flipped[i].Lits[0] = -flipped[i].Lits[0]
		cases = append(cases, RefCase{fmt.Sprintf("flip%d", i), cert.Formula, flipped})
	}
	cases = append(cases, RefCase{"weakened", cert.Formula[:len(cert.Formula)-1], cert.Steps})
	for _, c := range hintCorruptions(t) {
		cases = append(cases, c.RefCase)
	}
	return cases
}

// Wire format round-trips.

func stepsEqual(a, b []Step) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Del != b[i].Del || len(a[i].Lits) != len(b[i].Lits) {
			return false
		}
		if len(a[i].Lits) != 0 && !reflect.DeepEqual(a[i].Lits, b[i].Lits) {
			return false
		}
	}
	return true
}

func TestParseTextErrors(t *testing.T) {
	for _, bad := range []string{
		"1 2",       // missing terminator
		"1 x 0",     // junk literal
		"delta 1 0", // malformed deletion prefix
		"d1 2 0",    // deletion without separator
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText(%q) accepted", bad)
		}
	}
	steps, err := ParseText(strings.NewReader("c comment\n\nd 1 -2 0\n-1 0\n0\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Step{
		{Del: true, Lits: Clause{1, -2}},
		{Lits: Clause{-1}},
		{}, // empty clause
	}
	if !stepsEqual(steps, want) {
		t.Fatalf("got %+v, want %+v", steps, want)
	}
}

func TestWriteDIMACSIncludesUnits(t *testing.T) {
	cert := &Certificate{
		Vars:    3,
		Formula: []Clause{{1}, {-1, 2}, {-2, 3}, {-3}},
	}
	var buf bytes.Buffer
	if err := cert.WriteDIMACS(&buf, "unit test"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "p cnf 3 4") {
		t.Fatalf("bad header in %q", out)
	}
	if !strings.Contains(out, "\n1 0\n") {
		t.Fatalf("unit clause missing from %q", out)
	}
}

// TestCheckerIgnoresTrailingSteps: steps after the empty clause must not
// affect acceptance.
func TestCheckerIgnoresTrailingSteps(t *testing.T) {
	cert := refutation(t, 4, 3)
	steps := append(append([]Step(nil), cert.Steps...), Step{Lits: Clause{99}})
	if err := Check(cert.Formula, steps); err != nil {
		t.Fatalf("trailing step after empty clause rejected the proof: %v", err)
	}
}

// TestPremiseLoadAllocs: loading a formula allocates per arena and slab
// chunk, not per clause — the arena, the header table, the value table
// and the marks are sized once from the formula, and short watch lists
// are carved from shared slab chunks.
func TestPremiseLoadAllocs(t *testing.T) {
	const vars, n = 2000, 20000
	rng := rand.New(rand.NewSource(3))
	formula := make([]Clause, n)
	for i := range formula {
		a := 1 + rng.Intn(vars-1)
		formula[i] = Clause{-a, -(a + 1 + rng.Intn(vars-a))}
	}
	allocs := testing.AllocsPerRun(5, func() {
		ck, err := newChecker(formula, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range formula {
			ck.addPremise(c)
		}
	})
	if per := allocs / n; per > 0.01 {
		t.Errorf("loading premises allocates %.4f times per clause (%.0f for %d), want <= 0.01", per, allocs, n)
	}
}
