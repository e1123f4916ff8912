package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/compilecache"
	"repro/internal/flight"
	"repro/internal/history"
	"repro/internal/programs"
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
	// Each GMA's block: its key, cycle distribution, verdicts with engine
	// counts, encode and solve digests, per-budget probe histogram and
	// top-conflict probes with the requests that ran them. double's
	// cache hit is counted apart from its two fresh compiles.
	blocks := strings.Split(out, "\n\n")
	if len(blocks) != 3 {
		t.Fatalf("want a header and 2 GMA blocks, got %d:\n%s", len(blocks), out)
	}
	for i, want := range [][]string{
		{"double  [aaaa1111bbbb2222]  ev6  linear  goal-size=3  compiles=2  cache-hits=1", "cycles=1   x3",
			"100% optimal", "engines: sat=2", "encode     0.265 ms mean", "solve      0.095 ms mean",
			"K=0   sat=0    unsat=2    unknown=0", "K=1   sat=2    unsat=0    unknown=0",
			"top-conflicts K=0   unsat          3 conflicts  (request fix-0002)"},
		{"checksum  [cccc3333dddd4444]  ev6  linear  goal-size=9  compiles=1", "cycles=5   x1",
			"engines: sat=1", "encode     1.100 ms mean", "solve      2.400 ms mean",
			"K=4   sat=0    unsat=1    unknown=0", "K=5   sat=1    unsat=0    unknown=0",
			"top-conflicts K=4   unsat        120 conflicts  (request fix-0001)"},
	} {
		for _, line := range want {
			if !strings.Contains(blocks[i+1], line) {
				t.Errorf("block %d lacks %q:\n%s", i+1, line, blocks[i+1])
			}
		}
	}
}

func TestReportTopFilter(t *testing.T) {
	code, out, _ := runReportT(t, "-top", "1", fixture)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	// The fixture has two GMAs: double (aaaa1111..., 2 compiles and a
	// cache hit) and checksum (cccc3333..., 1 compile). -top 1 keeps
	// double's records, and the summary covers only those.
	if !strings.Contains(out, "double  [aaaa1111bbbb2222]") || strings.Count(out, "  [") != 1 {
		t.Fatalf("want double's block alone:\n%s", out)
	}
	if strings.Contains(out, "cccc3333") {
		t.Fatalf("-top 1 leaked a second GMA:\n%s", out)
	}
	if !strings.Contains(out, "3 reports, 0 errors, 1 distinct GMAs") {
		t.Fatalf("summary header wrong:\n%s", out)
	}

	// -json dumps the same kept reports as JSONL.
	code, out, _ = runReportT(t, "-top", "1", "-json", fixture)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 || strings.Contains(out, "cccc3333") {
		t.Fatalf("-top 1 JSONL has %d lines, want double's 3:\n%s", len(lines), out)
	}
}

func TestReportFingerprintFilter(t *testing.T) {
	code, out, _ := runReportT(t, "-fingerprint", "cccc", fixture)
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "checksum  [cccc3333dddd4444]") || strings.Contains(out, "aaaa1111") {
		t.Fatalf("fingerprint filter wrong:\n%s", out)
	}
	if !strings.Contains(out, "1 reports, 0 errors, 1 distinct GMAs") {
		t.Fatalf("summary header wrong:\n%s", out)
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

func TestReportUsageAndErrors(t *testing.T) {
	if code, _, _ := runReportT(t); code != 2 {
		t.Fatalf("no-args exit %d, want 2", code)
	}
	if code, _, _ := runReportT(t, "does-not-exist.jsonl"); code != 1 {
		t.Fatalf("missing log exit %d, want 1", code)
	}
	for _, args := range [][]string{{"-diff", fixture, fixture}, {"-ingest", t.TempDir(), fixture}} {
		if code, _, _ := runReportT(t, args...); code != 2 {
			t.Fatalf("%v: exit %d, want 2 (no such flag)", args, code)
		}
	}
}

// compileReport compiles src with a flight recorder, as the CLI and
// serve do, and returns the report they would file.
func compileReport(t *testing.T, id, src string, opt repro.Options) flight.Report {
	t.Helper()
	fr := flight.NewRecorder(id)
	fr.SetRequest(opt.Arch, opt.StrategyName(), opt.Workers, len(src))
	opt.RequestID, opt.Flight = id, fr
	t0 := time.Now()
	if _, err := repro.Compile(src, opt); err != nil {
		fr.Fail(err.Error(), false)
	}
	return fr.Report(time.Since(t0))
}

// TestReportFoldsAsServeFiles: `denali report` reading a JSONL log and
// `denali serve` filing the same reports in memory build the same
// history snapshot: keys, counts, cycle distributions, digests, probe
// histograms, top-conflict probes and LastSeen. The reports cover a
// fresh compile, a cache hit, a coalesced compile, a GMA error, a panic
// and a timeout, under two strategies.
func TestReportFoldsAsServeFiles(t *testing.T) {
	cache := compilecache.New(compilecache.Config{})
	fresh := compileReport(t, "fresh", programs.Byteswap4, repro.Options{Cache: cache})
	hit := compileReport(t, "hit", programs.Byteswap4, repro.Options{Cache: cache})
	if len(hit.GMAs) != 1 || !hit.GMAs[0].CacheHit {
		t.Fatalf("second compile is not a cache hit: %+v", hit.GMAs)
	}
	coalesced := compileReport(t, "coalesced", programs.Byteswap4, repro.Options{Cache: cache})
	coalesced.GMAs[0].CacheHit, coalesced.GMAs[0].Coalesced = false, true
	descend := compileReport(t, "descend", programs.Byteswap4, repro.Options{Strategy: "descend"})
	failed := compileReport(t, "failed", programs.Byteswap4, repro.Options{MatcherMaxNodes: 1})
	if len(failed.GMAs) != 1 || failed.GMAs[0].Error == "" {
		t.Fatalf("matcher-nodes 1 compile: want one failed GMA record, got %+v", failed.GMAs)
	}
	panicked := flight.NewReport("panicked")
	panicked.Arch, panicked.Strategy = "ev6", "linear"
	panicked.Error, panicked.Panic = "panic: boom", true
	panicked.GMAs = []flight.GMAReport{{Name: "byteswap4", Fingerprint: fresh.GMAs[0].Fingerprint, Error: "panic: boom", Panic: true}}
	timeout := compileReport(t, "timeout", programs.Quickstart, repro.Options{})
	timeout.Error, timeout.Timeout = "compile exceeded the request timeout", true
	reps := []flight.Report{fresh, hit, coalesced, descend, failed, panicked, timeout}

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
	read, err := readLogs([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	fromLog := fold(read).Snapshot()
	live := history.New(history.Config{})
	for _, rep := range reps {
		live.Ingest(rep)
	}
	fromMem := live.Snapshot()

	fromLog.SavedAt, fromMem.SavedAt = time.Time{}, time.Time{}
	a, err := json.Marshal(fromLog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(fromMem)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\nfrom the log:    %s\nfrom the memory: %s", a, b)
	}
	var ta, tb bytes.Buffer
	if err := fromLog.WriteText(&ta); err != nil {
		t.Fatal(err)
	}
	if err := fromMem.WriteText(&tb); err != nil {
		t.Fatal(err)
	}
	if ta.String() != tb.String() {
		t.Fatalf("texts differ:\n%s\n---\n%s", ta.String(), tb.String())
	}

	// The comparison is not vacuous: every outcome landed.
	if tot := fromMem.Totals; tot.Reports != 7 || tot.CacheHits != 1 || tot.Coalesced != 1 || tot.Panics != 1 || tot.Timeouts != 1 {
		t.Fatalf("totals = %+v", tot)
	}
	var linear *history.Aggregate
	for _, k := range fromMem.Keys {
		if k.Fingerprint == fresh.GMAs[0].Fingerprint && k.Strategy == "linear" {
			linear = k
		}
	}
	if linear == nil || linear.Compiles != 1 || linear.CacheHits != 1 || linear.Coalesced != 1 || linear.Errors != 2 || linear.Panics != 1 {
		t.Fatalf("byteswap4 linear aggregate = %+v", linear)
	}
	if linear.GoalSize != fresh.GMAs[0].GoalSize {
		t.Fatalf("byteswap4 linear goal size %d, want %d (the panicked record carries none)", linear.GoalSize, fresh.GMAs[0].GoalSize)
	}
	if linear.Encode.Count != 1 || len(linear.ProbeHist) == 0 || len(linear.TopConflicts) == 0 || linear.TopConflicts[0].RequestID != "fresh" {
		t.Fatalf("byteswap4 linear: encode %+v, histogram %v, top conflicts %+v", linear.Encode, linear.ProbeHist, linear.TopConflicts)
	}
	if !linear.LastSeen.Equal(panicked.Start) {
		t.Fatalf("byteswap4 linear last seen %v, want the panicked request's start %v", linear.LastSeen, panicked.Start)
	}
	if len(fromMem.Keys) != 4 { // byteswap4 linear and descend, quickstart's two GMAs
		t.Fatalf("%d keys, want 4", len(fromMem.Keys))
	}
}
