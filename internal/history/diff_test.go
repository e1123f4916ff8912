package history

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flight"
)

// modeCorpus writes a warehouse snapshot of four GMAs, each compiled
// under scratch and under incremental search, and returns its path. It
// holds the known small-GMA incremental regression: scale4plus1 and
// double, whose sub-0.1 ms solves are dominated by per-probe setup, run
// ten times slower incrementally. byteswap4 and checksum_loop get
// faster, and byteswap4's conflicts grow 10 -> 40: past the 2x ratio,
// but under the conflict floor.
func modeCorpus(t *testing.T) string {
	t.Helper()
	type side struct {
		solveMS   float64
		conflicts int64
	}
	w := New(Config{})
	for _, g := range []struct {
		name         string
		cycles       int
		scratch, inc side
	}{
		{"scale4plus1", 1, side{0.02, 0}, side{0.2, 1}},
		{"double", 1, side{0.02, 0}, side{0.2, 1}},
		{"byteswap4", 5, side{6, 10}, side{5, 40}},
		{"checksum_loop", 5, side{300, 4000}, side{250, 3000}},
	} {
		for _, inc := range []bool{false, true} {
			s := g.scratch
			if inc {
				s = g.inc
			}
			rep := mkReport("r", "fp-"+g.name, g.name, inc, s.solveMS, 2*s.solveMS, g.cycles)
			rep.GMAs[0].Probes[0].Conflicts, rep.GMAs[0].Probes[1].Conflicts = 0, s.conflicts
			w.Ingest(rep)
		}
	}
	path := filepath.Join(t.TempDir(), "modes.json")
	if err := w.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// writeLog writes reports as a flight-report JSONL log and returns its
// path.
func writeLog(t *testing.T, reps ...flight.Report) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reports.jsonl")
	log, err := flight.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range reps {
		if err := log.Write(rep); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSentinelFlagsKnownIncrementalRegression is the acceptance check: a
// thresholded diff of the scratch view against the incremental view
// must flag the small-GMA slowdowns (scale4plus1 and double) by name,
// and nothing else.
func TestSentinelFlagsKnownIncrementalRegression(t *testing.T) {
	path := modeCorpus(t)
	base, err := LoadComparable(path + "#scratch")
	if err != nil {
		t.Fatal(err)
	}
	cand, err := LoadComparable(path + "#incremental")
	if err != nil {
		t.Fatal(err)
	}
	if base.Kind != "history-snapshot" || base.View != "scratch" {
		t.Fatalf("base = %q view %q", base.Kind, base.View)
	}
	if len(base.Rows) != 4 || len(cand.Rows) != 4 {
		t.Fatalf("rows: base %d cand %d, want 4 each", len(base.Rows), len(cand.Rows))
	}

	v := Diff(base, cand, DefaultThresholds())
	if v.Clean {
		t.Fatal("verdict clean; the known incremental regression was not flagged")
	}
	if v.Compared != len(base.Rows) {
		t.Fatalf("compared %d keys, want %d", v.Compared, len(base.Rows))
	}
	flagged := map[string]bool{}
	for _, d := range v.Regressions {
		flagged[d.Name] = true
		if d.Metric == "conflicts" {
			t.Fatalf("conflict floor failed: %+v flagged on %g conflicts", d, d.Cand)
		}
	}
	for _, want := range []string{"scale4plus1", "double"} {
		if !flagged[want] {
			t.Fatalf("known regression %q not flagged; got %v", want, flagged)
		}
	}
	for _, fast := range []string{"byteswap4", "checksum_loop"} {
		if flagged[fast] {
			t.Fatalf("%s got faster but was flagged: %+v", fast, v.Regressions)
		}
	}
}

// TestSentinelDisjointCorporaClean: two artifacts with no key in common
// measure different things; their diff compares zero keys and must be
// clean, not a false alarm.
func TestSentinelDisjointCorporaClean(t *testing.T) {
	base, err := LoadComparable(modeCorpus(t))
	if err != nil {
		t.Fatal(err)
	}
	cand, err := LoadComparable(writeLog(t, mkReport("r", "fp-other", "popcount", true, 3, 4, 12)))
	if err != nil {
		t.Fatal(err)
	}
	if cand.Kind != "flight-log" {
		t.Fatalf("cand kind = %q, want flight-log", cand.Kind)
	}
	v := Diff(base, cand, DefaultThresholds())
	if !v.Clean || v.Compared != 0 {
		t.Fatalf("verdict = clean=%v compared=%d, want clean over 0 keys", v.Clean, v.Compared)
	}
	if len(v.OnlyBaseline) == 0 || len(v.OnlyCandidate) == 0 {
		t.Fatal("one-sided keys not reported")
	}
	var b strings.Builder
	if err := v.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no comparable keys") {
		t.Fatalf("text verdict missing the zero-overlap note:\n%s", b.String())
	}
}

func TestSentinelSelfDiffClean(t *testing.T) {
	snap := modeCorpus(t)
	log := writeLog(t,
		mkReport("r1", "fp-a", "double", false, 0.02, 0.04, 1),
		mkReport("r2", "fp-b", "byteswap4", true, 6, 12, 5))
	for _, spec := range []string{snap, log, snap + "#incremental"} {
		a, err := LoadComparable(spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := LoadComparable(spec)
		if err != nil {
			t.Fatal(err)
		}
		v := Diff(a, b, DefaultThresholds())
		if !v.Clean || len(v.Regressions) != 0 || v.Compared == 0 {
			t.Fatalf("self-diff of %s not clean over its keys: compared %d, %+v", spec, v.Compared, v.Regressions)
		}
	}
}

func TestSentinelThresholdFloors(t *testing.T) {
	mk := func(wall, conflicts float64) *Comparable {
		return &Comparable{Source: "test", Rows: map[string]CompRow{
			"k": {Key: "k", WallMS: wall, SolveMS: -1, Conflicts: conflicts, Cycles: -1, ErrorRate: -1},
		}}
	}
	th := DefaultThresholds()

	// A 10x blowup under the MinWallMS floor stays clean: noise, not signal.
	if v := Diff(mk(0.0004, 10), mk(0.004, 10), th); !v.Clean {
		t.Fatalf("sub-floor wall blowup flagged: %+v", v.Regressions)
	}
	// Above the floor the same ratio flags.
	if v := Diff(mk(0.04, 10), mk(0.4, 10), th); v.Clean {
		t.Fatal("10x wall growth above the floor not flagged")
	}
	// Conflict growth below MinConflicts stays clean (a small GMA's 0 -> 1).
	if v := Diff(mk(1, 0), mk(1, 1), th); !v.Clean {
		t.Fatalf("sub-floor conflict growth flagged: %+v", v.Regressions)
	}
	// Above the floor it flags.
	if v := Diff(mk(1, 100), mk(1, 500), th); v.Clean {
		t.Fatal("5x conflict growth above the floor not flagged")
	}
	// Absent metrics (-1) never compare.
	if v := Diff(mk(-1, -1), mk(-1, -1), th); !v.Clean || v.Compared != 1 {
		t.Fatalf("absent metrics compared: %+v", v)
	}
}

func TestSentinelCycleAndErrorRules(t *testing.T) {
	mk := func(cycles, errRate float64) *Comparable {
		return &Comparable{Source: "test", Rows: map[string]CompRow{
			"k": {Key: "k", WallMS: -1, SolveMS: -1, Conflicts: -1, Cycles: cycles, ErrorRate: errRate},
		}}
	}
	th := DefaultThresholds()
	// Any cycle increase is a regression: cycles are the answer, not the cost.
	if v := Diff(mk(3, 0), mk(4, 0), th); v.Clean {
		t.Fatal("cycle increase not flagged")
	}
	if v := Diff(mk(4, 0), mk(3, 0), th); !v.Clean || len(v.Improvements) != 1 {
		t.Fatalf("cycle decrease: %+v", v)
	}
	// Error-rate growth past the delta flags.
	if v := Diff(mk(3, 0.0), mk(3, 0.2), th); v.Clean {
		t.Fatal("error-rate growth not flagged")
	}
	if v := Diff(mk(3, 0.0), mk(3, 0.01), th); !v.Clean {
		t.Fatalf("error-rate noise flagged: %+v", v.Regressions)
	}
}

// TestSentinelHistorySnapshots diffs two warehouse snapshots end to end:
// same traffic is clean, a slowed-down candidate flags.
func TestSentinelHistorySnapshots(t *testing.T) {
	dir := t.TempDir()
	mkSnap := func(name string, solveMS float64) string {
		w := New(Config{})
		for i := 0; i < 20; i++ {
			w.Ingest(mkReport("r", "fp-slow", "checksum", true, solveMS, solveMS*2, 4))
			w.Ingest(mkReport("r", "fp-ok", "double", false, 0.05, 0.1, 1))
		}
		path := filepath.Join(dir, name)
		if err := w.WriteSnapshotFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	basePath := mkSnap("base.json", 1.0)
	candPath := mkSnap("cand.json", 5.0)

	base, err := LoadComparable(basePath)
	if err != nil {
		t.Fatal(err)
	}
	if base.Kind != "history-snapshot" {
		t.Fatalf("kind = %q", base.Kind)
	}
	cand, err := LoadComparable(candPath)
	if err != nil {
		t.Fatal(err)
	}
	v := Diff(base, cand, DefaultThresholds())
	if v.Clean {
		t.Fatal("5x solve slowdown between snapshots not flagged")
	}
	seen := false
	for _, d := range v.Regressions {
		if strings.HasPrefix(d.Key, "fp-slow|") {
			seen = true
		}
		if strings.HasPrefix(d.Key, "fp-ok|") {
			t.Fatalf("unchanged key flagged: %+v", d)
		}
	}
	if !seen {
		t.Fatal("slowed key not among regressions")
	}

	// Same snapshot against itself: clean.
	self := Diff(base, base, DefaultThresholds())
	if !self.Clean {
		t.Fatalf("self diff not clean: %+v", self.Regressions)
	}
}

// TestSentinelScratchVsIncrementalViewOfWarehouse exercises the
// mode-collapsing views on warehouse-shaped sources.
func TestSentinelScratchVsIncrementalViewOfWarehouse(t *testing.T) {
	w := New(Config{})
	for i := 0; i < 10; i++ {
		w.Ingest(mkReport("r", "fpV", "g", false, 0.1, 0.2, 2))
		w.Ingest(mkReport("r", "fpV", "g", true, 5.0, 6.0, 2))
	}
	path := filepath.Join(t.TempDir(), "snap.json")
	if err := w.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	scratch, err := LoadComparable(path + "#scratch")
	if err != nil {
		t.Fatal(err)
	}
	inc, err := LoadComparable(path + "#incremental")
	if err != nil {
		t.Fatal(err)
	}
	if len(scratch.Rows) != 1 || len(inc.Rows) != 1 {
		t.Fatalf("view rows: scratch %d inc %d", len(scratch.Rows), len(inc.Rows))
	}
	v := Diff(scratch, inc, DefaultThresholds())
	if v.Compared != 1 || v.Clean {
		t.Fatalf("mode views did not align/flag: %+v", v)
	}

	if _, err := LoadComparable(path + "#bogus"); err == nil {
		t.Fatal("bogus view accepted")
	}
}

func TestLoadComparableDirAndErrors(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w.Ingest(mkReport("r", "fpD", "g", false, 0.1, 0.2, 1))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	c, err := LoadComparable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Rows) != 1 {
		t.Fatalf("dir rows = %d", len(c.Rows))
	}

	if _, err := LoadComparable(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}

	// The retired denali-bench fixture schemas are unknown, not half-read.
	for _, kind := range []string{"incremental", "cache", "trajectory", "fleet", "portfolio"} {
		path := filepath.Join(t.TempDir(), kind+".json")
		doc := `{"schema": "denali-bench-` + kind + `/v1", "gmas": []}`
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadComparable(path); err == nil || !strings.Contains(err.Error(), "unknown schema") {
			t.Fatalf("%s fixture: err = %v, want unknown schema", kind, err)
		}
	}
}
