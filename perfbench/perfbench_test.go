package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The benchmark reads the golden corpus relative to the repository root,
// as it does when run.sh starts it there.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runBench runs the command with a one-second budget and decodes the
// result line.
func runBench(t *testing.T, workload string, seed, trace string) (result, int) {
	t.Helper()
	var out bytes.Buffer
	code := run([]string{"--workload", workload, "--seed", seed, "--seconds", "1", "--trace", trace}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%s: result line: %v\n%s", workload, err, out.String())
	}
	return r, code
}

func TestExactCountsRepeat(t *testing.T) {
	exact := map[string][]string{
		"0": {"cycles_sum", "instrs_sum"},
		"1": {"egraph.nodes", "sat.conflicts", "sat.propagations", "schedule.clauses", "schedule.probes"},
	}
	for trace, names := range exact {
		a, codeA := runBench(t, "kernels", "7", trace)
		b, codeB := runBench(t, "kernels", "7", trace)
		if codeA != 0 || codeB != 0 || !a.Correct || !b.Correct {
			t.Fatalf("trace=%s: runs failed: exit %d/%d, %d/%d failed", trace, codeA, codeB, a.Failed, b.Failed)
		}
		for _, name := range names {
			va, ok := a.Metrics[name]
			if !ok {
				t.Fatalf("trace=%s: no metric %s", trace, name)
			}
			if vb := b.Metrics[name]; va != vb {
				t.Errorf("trace=%s: %s = %v then %v; want identical", trace, name, va.Value, vb.Value)
			}
		}
	}
}

func TestSeedChangesInputs(t *testing.T) {
	same := func(a, b []program) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return len(a) == len(b)
	}
	for name, draw := range map[string]func(int64) []program{"kernels": kernelDraw, "deep-certify": deepDraw} {
		if !same(draw(3), draw(3)) {
			t.Errorf("%s: one seed drew two different input sets", name)
		}
		if same(draw(3), draw(4)) {
			t.Errorf("%s: seeds 3 and 4 drew the same inputs", name)
		}
	}
	stream := func(seed int64) string {
		var b strings.Builder
		c := newClientStream(seed)
		for i := 0; i < 50; i++ {
			src, _ := c.next()
			b.WriteString(src)
		}
		return b.String()
	}
	if stream(3) != stream(3) || stream(3) == stream(4) {
		t.Error("serve-zipf request stream is not a function of the seed")
	}
	if freshProgram(3, 0) == freshProgram(4, 0) {
		t.Error("fresh-miss stream does not depend on the seed")
	}
	seen := map[string]bool{}
	varName := regexp.MustCompile(`v[0-9a-f]{5}`)
	for i := 0; i < 2000; i++ {
		p := freshProgram(3, i)
		key := varName.ReplaceAllString(p.src, "x")
		if seen[key] {
			t.Fatalf("fresh program %d repeats an earlier one: %s", i, p.src)
		}
		seen[key] = true
	}
}

func TestInjectedWrongAnswerFails(t *testing.T) {
	kernelCycles["scaleoffset"]++
	r, code := runBench(t, "kernels", "1", "0")
	kernelCycles["scaleoffset"]--
	if code == 0 || r.Correct || r.Failed == 0 {
		t.Errorf("kernels with a wrong reference: exit %d, correct=%v, %d failed; want a failure", code, r.Correct, r.Failed)
	}

	extraRefs["popcount"] = ref{Cycles: 16, Optimal: true}
	defer func() { extraRefs["popcount"] = ref{Cycles: 17, Optimal: true} }()
	r, code = runBench(t, "serve-zipf", "1", "0")
	if code == 0 || r.Correct || r.Failed == 0 {
		t.Errorf("serve-zipf with a wrong reference: exit %d, correct=%v, %d failed; want a failure", code, r.Correct, r.Failed)
	}
}

func TestSelfTimes(t *testing.T) {
	sp := newSpans()
	root := sp.begin("root", -1, 0)
	sp.call("child", root, func() { time.Sleep(20 * time.Millisecond) })
	time.Sleep(10 * time.Millisecond)
	total := sp.end(root)
	self := sp.selfTimes(0)
	if self["child"] < 20*time.Millisecond {
		t.Errorf("child self time %v, want at least 20ms", self["child"])
	}
	if self["root"] < 10*time.Millisecond || self["root"]+self["child"] != total {
		t.Errorf("root self time %v + child %v, want its own 10ms or more and a sum of %v", self["root"], self["child"], total)
	}
}
