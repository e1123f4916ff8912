package flight

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gma"
	"repro/internal/term"
)

// g builds a one-target GMA computing the given value under the name.
func g(name, target string, value *term.Term) *gma.GMA {
	return &gma.GMA{
		Name:    name,
		Targets: []gma.Target{{Kind: gma.Reg, Name: target}},
		Values:  []*term.Term{value},
	}
}

func TestFingerprintAlphaInvariance(t *testing.T) {
	// Same computation, different variable/GMA/target names: same identity.
	a := g("p1", "res", term.NewApp("+", term.NewApp("*", term.NewVar("reg6"), term.NewConst(4)), term.NewConst(1)))
	b := g("p2", "out", term.NewApp("+", term.NewApp("*", term.NewVar("x"), term.NewConst(4)), term.NewConst(1)))
	if Fingerprint(a) != Fingerprint(b) {
		t.Errorf("alpha-renamed GMAs should share a fingerprint: %s vs %s", Fingerprint(a), Fingerprint(b))
	}
	// Different variable *structure* must separate: x+x vs x+y.
	xx := g("p", "r", term.NewApp("+", term.NewVar("x"), term.NewVar("x")))
	xy := g("p", "r", term.NewApp("+", term.NewVar("x"), term.NewVar("y")))
	if Fingerprint(xx) == Fingerprint(xy) {
		t.Error("x+x and x+y must not share a fingerprint")
	}
}

func TestFingerprintStructuralDifferences(t *testing.T) {
	base := g("p", "r", term.NewApp("+", term.NewVar("x"), term.NewConst(1)))
	cases := map[string]*gma.GMA{
		"different op":    g("p", "r", term.NewApp("-", term.NewVar("x"), term.NewConst(1))),
		"different const": g("p", "r", term.NewApp("+", term.NewVar("x"), term.NewConst(2))),
	}
	guarded := g("p", "r", term.NewApp("+", term.NewVar("x"), term.NewConst(1)))
	guarded.Guard = term.NewApp("=", term.NewVar("x"), term.NewConst(0))
	cases["guard added"] = guarded
	protected := g("p", "r", term.NewApp("+", term.NewVar("x"), term.NewConst(1)))
	protected.ProtectLoads = true
	cases["protect-loads"] = protected
	assumed := g("p", "r", term.NewApp("+", term.NewVar("x"), term.NewConst(1)))
	assumed.Assumes = []gma.Assumption{{Eq: true, A: term.NewVar("x"), B: term.NewConst(0)}}
	cases["assumption"] = assumed
	memory := &gma.GMA{
		Name:    "p",
		Targets: []gma.Target{{Kind: gma.Memory, Name: "r"}},
		Values:  []*term.Term{term.NewApp("+", term.NewVar("x"), term.NewConst(1))},
	}
	cases["target kind"] = memory
	for label, other := range cases {
		if Fingerprint(base) == Fingerprint(other) {
			t.Errorf("%s: fingerprint should differ from base", label)
		}
	}
	// A constant that collides textually with a variable alias must not
	// fuse: "#1" (const 1) vs alias "v1" are rendered distinctly.
	if Fingerprint(base) == Fingerprint(g("p", "r", term.NewApp("+", term.NewVar("x"), term.NewVar("y")))) {
		t.Error("const vs var operand should differ")
	}
}

func TestSanitizeID(t *testing.T) {
	cases := []struct{ in, want string }{
		{"abc-123_X.z", "abc-123_X.z"},
		{"a b\nc", "a_b_c"},
		{"héllo", "h_llo"}, // one '_' per rune, not per byte
	}
	for _, c := range cases {
		if got := SanitizeID(c.in); got != c.want {
			t.Errorf("SanitizeID(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := SanitizeID(strings.Repeat("a", 100)); len(got) != 64 {
		t.Errorf("long ID should cap at 64, got %d", len(got))
	}
	if got := SanitizeID(""); got == "" {
		t.Error("empty ID should generate a fresh one")
	}
	if a, b := SanitizeID(""), SanitizeID(""); a == b {
		t.Error("generated IDs should be distinct")
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Add(Report{ID: fmt.Sprintf("r%d", i)})
	}
	if r.Len() != 3 {
		t.Fatalf("Len = %d, want 3", r.Len())
	}
	if _, ok := r.Get("r0"); ok {
		t.Error("r0 should have been evicted")
	}
	if _, ok := r.Get("r4"); !ok {
		t.Error("r4 should be present")
	}
	last := r.Last(2)
	if len(last) != 2 || last[0].ID != "r4" || last[1].ID != "r3" {
		t.Errorf("Last(2) = %v, want [r4 r3]", last)
	}
	if got := len(r.Last(0)); got != 3 {
		t.Errorf("Last(0) should return all (3), got %d", got)
	}
	// Duplicate IDs resolve to the newest report.
	r.Add(Report{ID: "r4", Error: "second"})
	if rep, _ := r.Get("r4"); rep.Error != "second" {
		t.Error("Get should return the newest report for a reused ID")
	}
	// Nil safety.
	var nilRing *Ring
	nilRing.Add(Report{})
	if nilRing.Len() != 0 || nilRing.Last(1) != nil {
		t.Error("nil ring should be inert")
	}
}

func TestLogRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	log := NewLog(&buf)
	want := []Report{
		{ID: "a", Strategy: "linear", GMAs: []GMAReport{{Name: "g1", Fingerprint: "f1", Cycles: 3,
			Probes: []ProbeRow{{K: 2, Result: "unsat", Conflicts: 7}, {K: 3, Result: "sat"}}}}},
		{ID: "b", Error: "boom", Panic: true},
	}
	for _, rep := range want {
		if err := log.Write(rep); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadLog(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d reports, want %d", len(got), len(want))
	}
	if got[0].GMAs[0].Probes[0].Conflicts != 7 || got[1].Error != "boom" || !got[1].Panic {
		t.Errorf("round trip mangled reports: %+v", got)
	}
	// Malformed line reports its line number.
	if _, err := ReadLog(strings.NewReader("{\"id\":\"ok\"}\nnot-json\n")); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("want line-2 error, got %v", err)
	}
	// Logs written by older builds still load: keys a report no longer
	// has (the retired router's upstream/attempts) are ignored.
	old, err := ReadLog(strings.NewReader(`{"id":"old","wall_ms":4,"upstream":"10.0.0.1:8473","attempts":2}` + "\n"))
	if err != nil || len(old) != 1 || old[0].ID != "old" || old[0].WallMillis != 4 {
		t.Errorf("older log: %+v, %v", old, err)
	}
	// Nil log swallows writes.
	var nilLog *Log
	if err := nilLog.Write(Report{}); err != nil {
		t.Errorf("nil log Write = %v", err)
	}
}

func TestRecorderConcurrent(t *testing.T) {
	fr := NewRecorder("req1")
	fr.SetRequest("ev6", "parallel", 4, 100)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			fr.AddGMA(GMAReport{Name: fmt.Sprintf("g%d", i)})
		}()
	}
	wg.Wait()
	rep := fr.Report(2 * time.Millisecond)
	if rep.ID != "req1" || rep.Strategy != "parallel" || len(rep.GMAs) != 16 {
		t.Errorf("report = id %q strategy %q gmas %d", rep.ID, rep.Strategy, len(rep.GMAs))
	}
	if rep.WallMillis != 2 {
		t.Errorf("WallMillis = %v, want 2", rep.WallMillis)
	}
	// The snapshot is detached from the recorder.
	fr.AddGMA(GMAReport{Name: "late"})
	if len(rep.GMAs) != 16 {
		t.Error("snapshot should not grow after Report")
	}
	// Nil recorder swallows everything.
	var nilRec *Recorder
	nilRec.SetRequest("a", "b", 1, 1)
	nilRec.AddGMA(GMAReport{})
	nilRec.Fail("x", true)
	if nilRec.Enabled() || nilRec.ID() != "" || nilRec.Report(0).ID != "" {
		t.Error("nil recorder should be inert")
	}
}

func TestDescribeGMA(t *testing.T) {
	gm := g("p", "r", term.NewApp("+", term.NewApp("*", term.NewVar("x"), term.NewConst(4)), term.NewConst(1)))
	r := DescribeGMA(gm)
	if r.Name != "p" || r.Fingerprint == "" {
		t.Fatalf("describe = %+v", r)
	}
	if r.GoalSize != 5 {
		t.Errorf("GoalSize = %d, want 5", r.GoalSize)
	}
	if r.OperatorMix["+"] != 1 || r.OperatorMix["*"] != 1 {
		t.Errorf("OperatorMix = %v", r.OperatorMix)
	}
}

func TestReportJSONShape(t *testing.T) {
	// The wire shape is API: serve's /debug/requests and the JSONL logs
	// both expose it, so field renames are breaking changes.
	rep := NewReport("abc")
	rep.Strategy = "linear"
	rep.GMAs = []GMAReport{{Name: "g", Fingerprint: "f", Cycles: 1}}
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"id":"abc"`, `"version":`, `"strategy":"linear"`,
		`"fingerprint":"f"`, `"cycles":1`, `"wall_ms"`} {
		if !strings.Contains(string(b), key) {
			t.Errorf("marshaled report missing %s: %s", key, b)
		}
	}
}
