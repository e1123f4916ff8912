package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"repro/internal/lang"
	"repro/internal/schedule"
)

var updateTrajectory = flag.Bool("update-trajectory", false, "rewrite testdata/trajectory.json from the current solver trajectory")

const trajectoryPath = "testdata/trajectory.json"

// trajectoryProbe is one probe's exact search work.
type trajectoryProbe struct {
	K            int    `json:"k"`
	Result       string `json:"result"`
	Vars         int    `json:"vars"`
	Clauses      int    `json:"clauses"`
	Conflicts    int64  `json:"conflicts"`
	Decisions    int64  `json:"decisions"`
	Propagations int64  `json:"propagations"`
	Learned      int    `json:"learned"`
}

// trajectoryGMA pins everything a GMA's compile does, not just what it
// answers: the probe ladder with the solver's work counters, the emitted
// assembly, the size of the certified refutation, and the exact CNF of
// the load-bearing K = optimum−1 question.
type trajectoryGMA struct {
	Program       string            `json:"program"`
	GMA           string            `json:"gma"`
	Cycles        int               `json:"cycles"`
	Probes        []trajectoryProbe `json:"probes"`
	AsmSHA256     string            `json:"asm_sha256"`
	CertAdditions int               `json:"cert_additions"`
	CertDeletions int               `json:"cert_deletions"`
	// DIMACSSHA256 hashes NewProblem(optimum−1).WriteDIMACS before
	// Solve; empty for a 0-cycle optimum, which has no smaller budget.
	DIMACSSHA256 string `json:"dimacs_sha256,omitempty"`
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func recordTrajectory(t *testing.T) []trajectoryGMA {
	t.Helper()
	var out []trajectoryGMA
	for _, p := range goldenCorpus {
		prog, err := lang.Parse(p.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", p.name, err)
		}
		for _, proc := range prog.Procs {
			for _, g := range proc.GMAs {
				o := opts(t)
				o.Axioms = append(o.Axioms, prog.Axioms...)
				c, err := CompileGMA(g, o)
				if err != nil {
					t.Fatalf("%s/%s: %v", p.name, g.Name, err)
				}
				tg := trajectoryGMA{
					Program:   p.name,
					GMA:       g.Name,
					Cycles:    c.Cycles,
					AsmSHA256: sha256Hex([]byte(c.Assembly())),
				}
				for _, pr := range c.Probes {
					tg.Probes = append(tg.Probes, trajectoryProbe{
						K:            pr.K,
						Result:       pr.Result.String(),
						Vars:         pr.Vars,
						Clauses:      pr.Clauses,
						Conflicts:    pr.Solver.Conflicts,
						Decisions:    pr.Solver.Decisions,
						Propagations: pr.Solver.Propagations,
						Learned:      pr.Solver.Learned,
					})
				}

				co := o
				co.Schedule.Certify = true
				cc, err := CompileGMA(g, co)
				if err != nil {
					t.Fatalf("%s/%s: certified compile: %v", p.name, g.Name, err)
				}
				if cc.Cert != nil {
					st := cc.Cert.Stats()
					tg.CertAdditions, tg.CertDeletions = st.Additions, st.Deletions
				}

				if c.Cycles > 0 {
					sopt := o.Schedule
					sopt.Desc = o.Desc
					prob, err := schedule.NewProblem(c.Graph, g, c.Cycles-1, sopt)
					if err != nil {
						t.Fatalf("%s/%s: NewProblem(K=%d): %v", p.name, g.Name, c.Cycles-1, err)
					}
					var buf bytes.Buffer
					if err := prob.WriteDIMACS(&buf); err != nil {
						t.Fatal(err)
					}
					tg.DIMACSSHA256 = sha256Hex(buf.Bytes())
				}
				out = append(out, tg)
			}
		}
	}
	return out
}

// TestSolverTrajectory pins the search trajectory, not only the answers
// TestGoldenCorpus pins: for every golden-corpus GMA, each probe's
// variable, clause, conflict, decision, propagation and learned-clause
// counts, a hash of the emitted assembly, the certified refutation's
// step counts, and a hash of the exact DIMACS CNF of the optimum−1
// problem. A change that is meant to be a pure speedup (a different
// clause store, a different variable table, a faster key builder) must
// leave this file byte-identical. A change that is meant to alter the
// encoding or the solver's heuristics regenerates it with
//
//	go test ./internal/core -run TestSolverTrajectory -update-trajectory
//
// and says so.
func TestSolverTrajectory(t *testing.T) {
	got := recordTrajectory(t)
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if *updateTrajectory {
		if err := os.WriteFile(trajectoryPath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", trajectoryPath)
		return
	}
	raw, err := os.ReadFile(trajectoryPath)
	if err != nil {
		t.Fatalf("read trajectory file (regenerate with -update-trajectory): %v", err)
	}
	if bytes.Equal(raw, data) {
		return
	}
	var want []trajectoryGMA
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse %s: %v", trajectoryPath, err)
	}
	if len(want) != len(got) {
		t.Fatalf("corpus has %d GMAs, %s has %d", len(got), trajectoryPath, len(want))
	}
	for i := range got {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			t.Errorf("%s/%s: trajectory changed\n got: %s\nwant: %s", got[i].Program, got[i].GMA, g, w)
		}
	}
	if !t.Failed() {
		t.Errorf("%s differs from the recorded trajectory only in formatting; regenerate it", trajectoryPath)
	}
}
