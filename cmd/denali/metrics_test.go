package main

import (
	"strconv"
	"strings"
	"testing"

	"repro"
	"repro/internal/flight"
	"repro/internal/programs"
)

// TestCountsTableMatchesFlightRecord: every row of the -metrics counts
// block is the sum of the same field over the filed report's GMA rows.
// Checksum has several GMAs, so a row that read one GMA instead of the
// sum would show.
func TestCountsTableMatchesFlightRecord(t *testing.T) {
	fr := flight.NewRecorder("counts")
	res, err := repro.Compile(programs.Checksum, repro.Options{Arch: "ev6", Flight: fr})
	if err != nil {
		t.Fatal(err)
	}
	rep := fr.Report(0)
	if len(rep.GMAs) < 2 {
		t.Fatalf("checksum filed %d GMA rows, want several", len(rep.GMAs))
	}
	want := map[string]int64{}
	for _, g := range rep.GMAs {
		want["matcher.classes"] += int64(g.EGraphClasses)
		want["matcher.instantiations"] += int64(g.MatchInstantiations)
		want["matcher.nodes"] += int64(g.EGraphNodes)
		want["matcher.rounds"] += int64(g.MatchRounds)
		want["probes"] += int64(len(g.Probes))
		for _, p := range g.Probes {
			want["sat.conflicts"] += p.Conflicts
			want["sat.decisions"] += p.Decisions
			want["sat.learned"] += int64(p.Learned)
			want["sat.propagations"] += p.Propagations
			want["sat.restarts"] += p.Restarts
		}
	}
	table := countsTable(res)
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 1+len(want) {
		t.Fatalf("counts block has %d rows, want a header and %d counts:\n%s", len(lines), len(want), table)
	}
	for _, line := range lines[1:] {
		f := strings.Fields(line)
		if len(f) != 2 {
			t.Fatalf("malformed row %q", line)
		}
		got, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			t.Fatalf("row %q: %v", line, err)
		}
		w, ok := want[f[0]]
		if !ok {
			t.Errorf("unexpected row %q", f[0])
			continue
		}
		if got != w {
			t.Errorf("%s = %d, want %d (the sum over the report's GMA rows)", f[0], got, w)
		}
		if w == 0 {
			t.Errorf("%s is 0: checksum should exercise every count", f[0])
		}
	}
}
