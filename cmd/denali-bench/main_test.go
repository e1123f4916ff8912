package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flight"
)

func runT(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestList pins the harness to the paper's evaluation: E1–E12 and the
// ablations A1 and A2, in that order, and nothing else.
func TestList(t *testing.T) {
	code, out, errb := runT(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	want := "E1 E2 E3 E4 E5 E6 E7 E8 E9 E10 E11 E12 A1 A2"
	if got := strings.Join(ids, " "); got != want {
		t.Fatalf("-list ids = %s, want %s", got, want)
	}
}

// TestRunReportOut runs E1 with -report-out and reads the log back: one
// flight report, numbered under the experiment's id, for the scaled add.
func TestRunReportOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "reports.jsonl")
	code, out, errb := runT(t, "-run", "E1", "-report-out", path)
	if code != 0 {
		t.Fatalf("exit %d: %s\n%s", code, errb, out)
	}
	if !strings.Contains(out, "===== E1:") || strings.Contains(out, "===== E2:") {
		t.Fatalf("-run E1 ran the wrong experiments:\n%s", out)
	}
	reps, err := flight.ReadLogFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 {
		t.Fatalf("%d reports, want 1", len(reps))
	}
	rep := reps[0]
	if rep.ID != "E1-0001" || len(rep.GMAs) != 1 {
		t.Fatalf("report %s with %d GMAs, want E1-0001 with 1", rep.ID, len(rep.GMAs))
	}
	if g := rep.GMAs[0]; g.Name != "scale4plus1" || g.Cycles != 1 {
		t.Fatalf("GMA %s at %d cycles, want scale4plus1 at 1", g.Name, g.Cycles)
	}
}

// TestRunUnknownID: an id that is not in the list is a usage error that
// names the known ids, never a silent run of nothing.
func TestRunUnknownID(t *testing.T) {
	for _, id := range []string{"E16", "E99", "e2"} {
		code, out, errb := runT(t, "-run", id)
		if code != 2 {
			t.Fatalf("-run %s: exit %d, want 2\n%s%s", id, code, out, errb)
		}
		if !strings.Contains(errb, "E1 E2") || !strings.Contains(errb, "A2") {
			t.Fatalf("-run %s: known ids not listed: %s", id, errb)
		}
	}
}
