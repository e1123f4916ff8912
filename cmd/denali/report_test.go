package main

import (
	"bytes"
	"strings"
	"testing"
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
	// The fixture has two GMAs: double (aaaa1111..., 3 compiles, one of
	// them a cache hit) and checksum (cccc3333..., 1 compile). -top 1
	// keeps double's records, and the summary covers only those.
	if !strings.Contains(out, "double  [aaaa1111bbbb2222]") {
		t.Fatalf("top GMA block missing:\n%s", out)
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
