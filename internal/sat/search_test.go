package sat

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"slices"
	"strconv"
	"testing"
)

var updateSearch = flag.Bool("update-search", false, "rewrite testdata/search.json from the current solver")

const searchPath = "testdata/search.json"

// searchPin is everything one solve does that a change to the solver's
// data layout must leave alone: its answer, its work counters, and
// hashes of the model and of the proof log, which record every lemma,
// its hints and every deletion in order.
type searchPin struct {
	Name         string `json:"name"`
	Result       string `json:"result"`
	Conflicts    int64  `json:"conflicts"`
	Decisions    int64  `json:"decisions"`
	Propagations int64  `json:"propagations"`
	Learned      int    `json:"learned"`
	Restarts     int64  `json:"restarts"`
	Reduced      int64  `json:"reduced"`
	Core         []Lit  `json:"core,omitempty"`
	ModelSHA256  string `json:"model_sha256,omitempty"`
	ProofSHA256  string `json:"proof_sha256"`
}

// pin solves s under assumps with log attached since its first clause,
// and records the solve.
func pin(name string, s *Solver, log *logProof, assumps ...Lit) searchPin {
	res := s.Solve(assumps...)
	st := s.LastStats()
	p := searchPin{
		Name: name, Result: res.String(),
		Conflicts: st.Conflicts, Decisions: st.Decisions, Propagations: st.Propagations,
		Learned: st.Learned, Restarts: st.Restarts, Reduced: st.Reduced,
		Core: slices.Clone(s.Core()),
	}
	if res == Sat {
		var buf []byte
		for _, b := range s.Model() {
			c := byte('0')
			if b {
				c = '1'
			}
			buf = append(buf, c)
		}
		p.ModelSHA256 = sha256Hex(buf)
	}
	var buf []byte
	for _, step := range log.steps {
		for _, l := range step {
			buf = strconv.AppendInt(buf, int64(l), 10)
			buf = append(buf, ' ')
		}
		buf = append(buf, '\n')
	}
	p.ProofSHA256 = sha256Hex(buf)
	return p
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// recordSearch solves every testdata CNF and PHP(n+1, n) for n = 2…7
// outright, a random 3-SAT instance long enough to reduce its database,
// on a fresh and on a padded arena, and a guarded pigeonhole under
// assumptions whose failure conflict analysis traces back through a
// learned clause to two of the three assumptions.
func recordSearch(t *testing.T) []searchPin {
	t.Helper()
	defer dropSpare()
	var pins []searchPin
	cases := recycleCases(t)
	cases = append(cases, phpCase(7))
	for _, c := range cases {
		dropSpare()
		s, log := New(), &logProof{}
		s.Proof = log
		c.build(s)
		pins = append(pins, pin(c.name, s, log))
	}

	// Every reduction compacts the arena, so no deleted clause is ever
	// left on a watch list. The "-uncompacted" run starts on an arena
	// padded with a long unused run; when reductions compacted only once
	// deleted literals were half the arena, it never compacted and so
	// pinned the search of a propagate that skipped deleted clauses. It
	// compacts now too, and both runs still pin that same search.
	for _, padded := range []bool{false, true} {
		dropSpare()
		s, log := New(), &logProof{}
		s.Proof = log
		name := "random3sat-7-200-852"
		if padded {
			s.arena = make([]Lit, 1<<20)
			name += "-uncompacted"
		}
		random3SAT(s, 7, 200, 852)
		p := pin(name, s, log)
		if compacted := len(s.hdrs) < s.stats.Clauses+s.stats.Learned; p.Reduced == 0 || (!padded && !compacted) {
			t.Fatalf("%s: reduced %d, %d headers for %d clauses created",
				p.Name, p.Reduced, len(s.hdrs), s.stats.Clauses+s.stats.Learned)
		}
		pins = append(pins, p)
	}

	dropSpare()
	s, log := New(), &logProof{}
	s.Proof = log
	x, g1, g2 := guardedPHP(s, 5)
	p := pin("guarded-php65-assumptions", s, log, Pos(x), Pos(g1), Pos(g2))
	if p.Result != "UNSAT" || s.unsat || len(p.Core) != 2 || slices.Contains(p.Core, Pos(x)) {
		t.Fatalf("%s: %s with core %v, want an Unsat under the two guards alone", p.Name, p.Result, p.Core)
	}
	pins = append(pins, p)
	return pins
}

// guardedPHP adds PHP(n+1, n) to s with the even pigeons' rows guarded
// by g1 and the odd ones' by g2, plus an unrelated variable x, and
// returns x, g1 and g2. Under the assumptions x, g1, g2 the search
// learns that g1 excludes g2 and then finds g2 false while establishing
// the assumption prefix.
func guardedPHP(s *Solver, n int) (x, g1, g2 int) {
	x, g1, g2 = s.NewVar(), s.NewVar(), s.NewVar()
	c := phpCase(n)
	base := s.NumVars()
	for s.NumVars() < base+c.vars {
		s.NewVar()
	}
	for i, cl := range c.clauses {
		row := make([]Lit, 0, len(cl)+1)
		for _, l := range cl {
			row = append(row, l+Lit(2*base))
		}
		if i <= n {
			g := g1
			if i%2 == 1 {
				g = g2
			}
			row = append(row, Neg(g))
		}
		s.AddClause(row...)
	}
	return x, g1, g2
}

// TestSearchPinned pins the solver's search at package level: for every
// instance of recordSearch, the answer, the conflict, decision,
// propagation, learned, restart and reduction counts, and hashes of the
// model and of the proof log, against testdata/search.json. Unlike
// internal/core's trajectory gate it covers database reduction, arena
// compaction and failed assumptions. A change to how the solver stores
// its state must leave the file byte-identical; a change meant to alter
// the search regenerates it with
//
//	go test ./internal/sat -run TestSearchPinned -update-search
//
// and says so.
func TestSearchPinned(t *testing.T) {
	got := recordSearch(t)
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateSearch {
		if err := os.WriteFile(searchPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", searchPath)
		return
	}
	raw, err := os.ReadFile(searchPath)
	if err != nil {
		t.Fatalf("read %s (regenerate with -update-search): %v", searchPath, err)
	}
	if bytes.Equal(raw, data) {
		return
	}
	var want []searchPin
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", searchPath, err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d instances, %s has %d", len(got), searchPath, len(want))
	}
	for i := range got {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			t.Errorf("%s: search changed\n got: %s\nwant: %s", got[i].Name, g, w)
		}
	}
	if !t.Failed() {
		t.Errorf("%s differs from the recorded search only in formatting; regenerate it", searchPath)
	}
}
