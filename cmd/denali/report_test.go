package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/flight"
	"repro/internal/history"
)

const fixture = "testdata/reports.jsonl"

func runReportT(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := runReport(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestReportSummaryDefault(t *testing.T) {
	code, out, errb := runReportT(t, fixture)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "4 reports") || !strings.Contains(out, "1 errors") {
		t.Fatalf("summary missing counts:\n%s", out)
	}
}

func TestReportTopFilter(t *testing.T) {
	code, out, _ := runReportT(t, "-top", "1", fixture)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	// The fixture has three keys (aaaa scratch, aaaa incremental, cccc
	// scratch); -top 1 keeps the most-observed: aaaa1111 under linear
	// scratch (1 compile + 1 cache hit).
	if !strings.Contains(out, "aaaa1111bbbb2222") {
		t.Fatalf("top key missing:\n%s", out)
	}
	if strings.Contains(out, "cccc3333") {
		t.Fatalf("-top 1 leaked a second key:\n%s", out)
	}
	if !strings.Contains(out, "1 keys shown of 3") {
		t.Fatalf("footer wrong:\n%s", out)
	}
}

func TestReportFingerprintFilter(t *testing.T) {
	code, out, _ := runReportT(t, "-fingerprint", "cccc", fixture)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "cccc3333dddd4444") || strings.Contains(out, "aaaa1111") {
		t.Fatalf("fingerprint filter wrong:\n%s", out)
	}
	if !strings.Contains(out, "checksum") {
		t.Fatalf("name column missing:\n%s", out)
	}

	// The filter composes with -json: only matching GMA records survive.
	code, out, _ = runReportT(t, "-fingerprint", "cccc", "-json", fixture)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 {
		t.Fatalf("filtered JSONL has %d lines, want 1:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "cccc3333dddd4444") {
		t.Fatalf("JSONL line missing the fingerprint: %s", lines[0])
	}
}

func TestReportIngestAndDiffCleanSelf(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "house")
	code, out, errb := runReportT(t, "-ingest", dir, fixture)
	if code != 0 {
		t.Fatalf("ingest exit %d: %s", code, errb)
	}
	if !strings.Contains(out, "ingested 4 reports") {
		t.Fatalf("ingest output:\n%s", out)
	}
	snap, err := history.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Totals.Reports != 4 || len(snap.Keys) != 3 {
		t.Fatalf("warehouse after ingest: %+v, %d keys", snap.Totals, len(snap.Keys))
	}

	// Self-diff of the warehouse directory: clean, exit 0.
	code, out, errb = runReportT(t, "-diff", dir, dir)
	if code != 0 {
		t.Fatalf("self-diff exit %d: %s\n%s", code, errb, out)
	}
	if !strings.Contains(out, "0 regressions") {
		t.Fatalf("self-diff output:\n%s", out)
	}

	// Repeating the ingest accumulates (the warehouse persists).
	code, _, errb = runReportT(t, "-ingest", dir, fixture)
	if code != 0 {
		t.Fatalf("second ingest exit %d: %s", code, errb)
	}
	snap, err = history.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Totals.Reports != 8 {
		t.Fatalf("second ingest did not accumulate: %+v", snap.Totals)
	}
}

// writeModeLog writes a flight log of three GMAs, each compiled under
// scratch and under incremental search, and returns its path. It holds
// the known small-GMA incremental regression: scale4plus1 and double run
// ten times slower incrementally, while byteswap4 gets faster.
func writeModeLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "modes.jsonl")
	log, err := flight.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name             string
		scratchMS, incMS float64
	}{
		{"scale4plus1", 0.02, 0.2},
		{"double", 0.02, 0.2},
		{"byteswap4", 6, 5},
	} {
		for _, inc := range []bool{false, true} {
			ms := g.scratchMS
			if inc {
				ms = g.incMS
			}
			rep := flight.Report{ID: g.name, Arch: "ev6", Strategy: "linear", WallMillis: 2 * ms,
				GMAs: []flight.GMAReport{{
					Name: g.name, Fingerprint: "fp-" + g.name, SolveMillis: ms, Cycles: 1, OptimalProven: true,
					Probes: []flight.ProbeRow{{K: 1, Result: "sat", Incremental: inc}},
				}}}
			if err := log.Write(rep); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestReportDiffFlagsKnownRegression is the CLI half of the sentinel's
// acceptance check: the scratch-vs-incremental views of one flight log
// exit 3 and name scale4plus1 and double, while two logs with disjoint
// keys exit 0.
func TestReportDiffFlagsKnownRegression(t *testing.T) {
	modes := writeModeLog(t)
	code, out, errb := runReportT(t, "-diff", modes+"#scratch", modes+"#incremental")
	if code != 3 {
		t.Fatalf("exit %d, want 3: %s\n%s", code, errb, out)
	}
	var regressed []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "REGRESSION") {
			regressed = append(regressed, line)
		}
	}
	all := strings.Join(regressed, "\n")
	for _, name := range []string{"scale4plus1", "double"} {
		if !strings.Contains(all, name) {
			t.Fatalf("known regression %q not named:\n%s", name, out)
		}
	}
	if strings.Contains(all, "byteswap4") {
		t.Fatalf("byteswap4 got faster but was flagged:\n%s", out)
	}

	code, out, errb = runReportT(t, "-diff", modes, fixture)
	if code != 0 {
		t.Fatalf("disjoint diff exit %d, want 0: %s\n%s", code, errb, out)
	}
	if !strings.Contains(out, "0 keys compared") {
		t.Fatalf("disjoint diff output:\n%s", out)
	}
}

func TestReportDiffJSONVerdict(t *testing.T) {
	modes := writeModeLog(t)
	code, out, _ := runReportT(t, "-diff", "-json", modes+"#scratch", modes+"#incremental")
	if code != 3 {
		t.Fatalf("exit %d, want 3", code)
	}
	var v history.Verdict
	if err := json.Unmarshal([]byte(out), &v); err != nil {
		t.Fatalf("verdict not JSON: %v\n%s", err, out)
	}
	if v.Schema != history.DiffSchema || v.Clean || len(v.Regressions) == 0 {
		t.Fatalf("verdict = %+v", v)
	}
}

func TestReportDiffThresholdOverride(t *testing.T) {
	modes := writeModeLog(t)
	// With an absurdly loose wall ratio nothing regresses.
	code, _, errb := runReportT(t, "-diff", "-wall-ratio", "1000", modes+"#scratch", modes+"#incremental")
	if code != 0 {
		t.Fatalf("loose thresholds exit %d: %s", code, errb)
	}
	// With a floor above every solve time, also clean.
	code, _, _ = runReportT(t, "-diff", "-min-wall-ms", "1e9", modes+"#scratch", modes+"#incremental")
	if code != 0 {
		t.Fatalf("high floor exit %d", code)
	}
}

func TestReportUsageAndErrors(t *testing.T) {
	if code, _, _ := runReportT(t); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
	if code, _, _ := runReportT(t, "-diff", "only-one-side"); code != 2 {
		t.Fatalf("one-sided diff exit %d, want 2", code)
	}
	if code, _, _ := runReportT(t, "-diff", "nope.json", "also-nope.json"); code != 1 {
		t.Fatalf("missing-file diff exit %d, want 1", code)
	}
	if code, _, _ := runReportT(t, "does-not-exist.jsonl"); code != 1 {
		t.Fatalf("missing log exit %d, want 1", code)
	}
	// The retired denali-bench fixture schemas are an error, not a diff.
	for _, kind := range []string{"incremental", "cache", "trajectory", "fleet", "portfolio"} {
		path := filepath.Join(t.TempDir(), kind+".json")
		doc := `{"schema": "denali-bench-` + kind + `/v1"}`
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		code, _, errb := runReportT(t, "-diff", path, path)
		if code != 1 || !strings.Contains(errb, "unknown schema") {
			t.Fatalf("%s fixture diff: exit %d (%s), want 1 with unknown schema", kind, code, errb)
		}
	}
}
