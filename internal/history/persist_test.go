package history

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		w.Ingest(mkReport(fmt.Sprintf("r-%d", i), "fp1", "double", i%2 == 0, 0.5, 1.0, 2))
	}
	want := w.Snapshot()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got := w2.Snapshot()
	if got.Totals != want.Totals {
		t.Fatalf("totals after reopen = %+v, want %+v", got.Totals, want.Totals)
	}
	if got.LastSeq != want.LastSeq {
		t.Fatalf("seq after reopen = %d, want %d", got.LastSeq, want.LastSeq)
	}
	if len(got.Keys) != len(want.Keys) {
		t.Fatalf("keys after reopen = %d, want %d", len(got.Keys), len(want.Keys))
	}
	for i := range want.Keys {
		if got.Keys[i].Key != want.Keys[i].Key || got.Keys[i].Compiles != want.Keys[i].Compiles {
			t.Fatalf("key %d = %+v, want %+v", i, got.Keys[i], want.Keys[i])
		}
		if got.Keys[i].Solve.Count != want.Keys[i].Solve.Count || got.Keys[i].Solve.Sum != want.Keys[i].Solve.Sum {
			t.Fatalf("key %d solve digest diverged after replay", i)
		}
	}
}

// TestJournalWithRetiredKeys: a journal row written by an older build,
// carrying the retired router's upstream/attempts keys, still replays.
func TestJournalWithRetiredKeys(t *testing.T) {
	dir := t.TempDir()
	row := `{"seq":1,"t":"2026-01-02T03:04:05Z","req":"r-0","fingerprint":"fp1","arch":"ev6",` +
		`"strategy":"linear","incremental":false,"name":"g","cycles":1,"outcome":"ok","first":true,` +
		`"upstream":"10.0.0.1:8473","attempts":2}`
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(row+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if tot := w.Totals(); tot.Reports != 1 || tot.GMAs != 1 || tot.Errors != 0 {
		t.Fatalf("totals after replay = %+v, want 1 report, 1 GMA, no errors", tot)
	}
}

func TestJournalReplayWithoutClose(t *testing.T) {
	// A crash (no Close, no compaction) must lose nothing: every row was
	// flushed at append time.
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		w.Ingest(mkReport(fmt.Sprintf("r-%d", i), "fp1", "g", false, 0.1, 0.2, 1))
	}
	// Simulate the crash: drop the handle without Close/Compact.
	w.journal.f.Close()

	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if tot := w2.Totals(); tot.Reports != 7 {
		t.Fatalf("reports after crash-reopen = %d, want 7", tot.Reports)
	}
}

func TestSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir, CompactEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		w.Ingest(mkReport(fmt.Sprintf("r-%d", i), "fp1", "g", false, 0.1, 0.2, 1))
	}
	// 12 rows with CompactEvery=5: at least two compactions happened, so
	// the snapshot exists and the journal holds only the tail.
	snapRaw, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var snap Snapshot
	if err := json.Unmarshal(snapRaw, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Schema != SnapshotSchema {
		t.Fatalf("snapshot schema = %q", snap.Schema)
	}
	if snap.Totals.Reports < 10 {
		t.Fatalf("snapshot reports = %d, want >= 10", snap.Totals.Reports)
	}
	jRaw, _ := os.ReadFile(filepath.Join(dir, journalFile))
	if n := strings.Count(string(jRaw), "\n"); n >= 12 {
		t.Fatalf("journal still holds %d rows; compaction did not truncate", n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if tot := w2.Totals(); tot.Reports != 12 {
		t.Fatalf("reports after compacted reopen = %d, want 12", tot.Reports)
	}
}

func TestWatermarkSkipsReplayedRows(t *testing.T) {
	// Crash between snapshot rename and journal truncation: the journal
	// still holds rows the snapshot already folded in. Replay must skip
	// them via the LastSeq watermark.
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		w.Ingest(mkReport(fmt.Sprintf("r-%d", i), "fp1", "g", false, 0.1, 0.2, 1))
	}
	// Write the snapshot by hand without touching the journal — exactly
	// the state after a crash mid-compaction.
	if err := w.WriteSnapshotFile(filepath.Join(dir, snapshotFile)); err != nil {
		t.Fatal(err)
	}
	w.journal.f.Close()

	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if tot := w2.Totals(); tot.Reports != 6 {
		t.Fatalf("reports = %d, want 6 (journal rows double-counted?)", tot.Reports)
	}
}

func TestCorruptJournalQuarantine(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		w.Ingest(mkReport(fmt.Sprintf("r-%d", i), "fp1", "g", false, 0.1, 0.2, 1))
	}
	w.journal.f.Close()

	// Tear the journal tail: a valid prefix, then garbage.
	jPath := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(jPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq": 99, "t": "2026-`) // torn mid-write
	f.Close()

	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	// The valid prefix survives; the torn file is quarantined.
	if tot := w2.Totals(); tot.Reports != 4 {
		t.Fatalf("reports = %d, want 4 (valid prefix)", tot.Reports)
	}
	if _, err := os.Stat(jPath + ".bad"); err != nil {
		t.Fatalf("torn journal not quarantined: %v", err)
	}
	// The immediate post-quarantine compaction re-secured the rows.
	snap, ok := readSnapshotFile(filepath.Join(dir, snapshotFile))
	if !ok || snap.Totals.Reports != 4 {
		t.Fatalf("post-quarantine snapshot = %+v ok=%v", snap.Totals, ok)
	}
}

func TestCorruptSnapshotQuarantine(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, snapshotFile)
	if err := os.WriteFile(snapPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if tot := w.Totals(); tot.Reports != 0 {
		t.Fatalf("reports = %d from a corrupt snapshot", tot.Reports)
	}
	if _, err := os.Stat(snapPath + ".bad"); err != nil {
		t.Fatalf("corrupt snapshot not quarantined: %v", err)
	}

	// Foreign-schema snapshots are quarantined too, not misread.
	os.Remove(snapPath + ".bad")
	os.WriteFile(snapPath, []byte(`{"schema":"someone-elses/v9"}`), 0o644)
	w2, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if _, err := os.Stat(snapPath + ".bad"); err != nil {
		t.Fatalf("foreign snapshot not quarantined: %v", err)
	}
}

func TestLoadDirReadOnly(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		w.Ingest(mkReport(fmt.Sprintf("r-%d", i), "fp1", "g", false, 0.1, 0.2, 1))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	before, _ := os.ReadDir(dir)
	snap, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Totals.Reports != 3 || len(snap.Keys) != 1 {
		t.Fatalf("loaded snapshot = %+v", snap.Totals)
	}
	after, _ := os.ReadDir(dir)
	if len(before) != len(after) {
		t.Fatalf("LoadDir mutated the directory: %d -> %d entries", len(before), len(after))
	}

	if _, err := LoadDir(filepath.Join(dir, "nope")); err == nil {
		t.Fatal("LoadDir on a missing directory did not error")
	}
}

func TestWriteSnapshotFileStandalone(t *testing.T) {
	w := New(Config{})
	w.Ingest(mkReport("r", "fp1", "g", false, 0.1, 0.2, 1))
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := w.WriteSnapshotFile(path); err != nil {
		t.Fatal(err)
	}
	snap, ok := readSnapshotFile(path)
	if !ok || snap.Totals.Reports != 1 {
		t.Fatalf("standalone snapshot = %+v ok=%v", snap.Totals, ok)
	}
}
