package compilecache

import (
	"strings"
	"testing"

	"repro/internal/axioms"
	"repro/internal/gma"
	"repro/internal/lang"
	"repro/internal/programs"
	"repro/internal/term"
)

// parseGMAs parses Denali source into its GMAs.
func parseGMAs(t *testing.T, src string) []*gma.GMA {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var gs []*gma.GMA
	for _, p := range prog.Procs {
		gs = append(gs, p.GMAs...)
	}
	if len(gs) == 0 {
		t.Fatal("no GMAs parsed")
	}
	return gs
}

// renameTerm rewrites every variable through f, structurally preserving
// everything else — the test-side alpha-renamer.
func renameTerm(t *term.Term, f func(string) string) *term.Term {
	if t == nil {
		return nil
	}
	switch t.Kind {
	case term.Var:
		return term.NewVar(f(t.Name))
	case term.Const:
		return t
	default:
		args := make([]*term.Term, len(t.Args))
		for i, a := range t.Args {
			args[i] = renameTerm(a, f)
		}
		return term.NewApp(t.Op, args...)
	}
}

// alphaRename returns a deep copy of g with every name — GMA, targets,
// inputs, every variable occurrence — rewritten through f. The result is
// the same computation under different names, so it must share g's key.
func alphaRename(g *gma.GMA, f func(string) string) *gma.GMA {
	out := *g
	out.Name = f(g.Name)
	out.Guard = renameTerm(g.Guard, f)
	out.Targets = make([]gma.Target, len(g.Targets))
	for i, tg := range g.Targets {
		out.Targets[i] = gma.Target{Kind: tg.Kind, Name: f(tg.Name)}
	}
	out.Values = make([]*term.Term, len(g.Values))
	for i, v := range g.Values {
		out.Values[i] = renameTerm(v, f)
	}
	out.Inputs = make([]string, len(g.Inputs))
	for i, in := range g.Inputs {
		out.Inputs[i] = f(in)
	}
	out.MissAddrs = make([]*term.Term, len(g.MissAddrs))
	for i, m := range g.MissAddrs {
		out.MissAddrs[i] = renameTerm(m, f)
	}
	out.Assumes = make([]gma.Assumption, len(g.Assumes))
	for i, as := range g.Assumes {
		out.Assumes[i] = gma.Assumption{A: renameTerm(as.A, f), B: renameTerm(as.B, f), Eq: as.Eq}
	}
	return &out
}

// corpus returns the golden corpus programs keyed by name — the same
// programs the serve conformance and bench suites exercise.
func corpus() map[string]string {
	return map[string]string{
		"quickstart": programs.Quickstart,
		"byteswap4":  programs.Byteswap4,
		"byteswap5":  programs.Byteswap5,
		"checksum":   programs.Checksum,
		"copyloop":   programs.CopyLoop,
		"lcp2":       programs.Lcp2,
		"rowop":      programs.Rowop,
		"sumloop":    programs.SumLoop,
	}
}

// TestKeyAlphaRenameCollides: two alpha-renamed variants of one
// computation MUST share a key — across the whole golden corpus, under
// two different renamings (prefixing and full replacement).
func TestKeyAlphaRenameCollides(t *testing.T) {
	cfg := KeyConfig{AxiomVersion: "ax0", BuildVersion: "b0"}
	renames := map[string]func(string) string{
		"prefixed": func(s string) string { return "zz_" + s },
		"numbered": func(s string) string { return "n" + s + "_x" },
	}
	for name, src := range corpus() {
		for _, g := range parseGMAs(t, src) {
			want := Key(g, cfg)
			for rname, f := range renames {
				got := Key(alphaRename(g, f), cfg)
				if got != want {
					t.Errorf("%s/%s: %s alpha-rename changed key: %s != %s",
						name, g.Name, rname, got, want)
				}
			}
		}
	}
}

// TestKeyStructureSeparates: structurally different GMAs must not share
// a key — pairwise across every GMA of the golden corpus.
func TestKeyStructureSeparates(t *testing.T) {
	cfg := KeyConfig{AxiomVersion: "ax0", BuildVersion: "b0"}
	seen := map[string]string{}
	for name, src := range corpus() {
		for _, g := range parseGMAs(t, src) {
			k := Key(g, cfg)
			id := name + "/" + g.Name
			if prev, dup := seen[k]; dup {
				t.Errorf("key collision between %s and %s: %s", prev, id, k)
			}
			seen[k] = id
		}
	}
	if len(seen) < 8 {
		t.Fatalf("expected at least 8 distinct GMAs in the corpus, got %d", len(seen))
	}
}

// TestKeyConfigSeparates: every result-shaping field of KeyConfig must
// move the key on its own; the table names each field so a silently
// dropped dimension fails by name.
func TestKeyConfigSeparates(t *testing.T) {
	g := parseGMAs(t, programs.Quickstart)[0]
	base := KeyConfig{
		Arch: "ev6", Strategy: "linear", AxiomVersion: "ax0", BuildVersion: "b0",
		MaxCycles: 24, MaxConflicts: 0,
		MatcherMaxRounds: 0, MatcherMaxNodes: 0,
		DisableAtMostOnce: false, Certify: false,
	}
	want := Key(g, base)
	mutations := map[string]KeyConfig{}
	m := base
	m.Arch = "itanium"
	mutations["Arch"] = m
	for _, strategy := range []string{"binary", "descend", "parallel"} {
		m = base
		m.Strategy = strategy
		mutations["Strategy="+strategy] = m
	}
	m = base
	m.AxiomVersion = "ax1"
	mutations["AxiomVersion"] = m
	m = base
	m.BuildVersion = "b1"
	mutations["BuildVersion"] = m
	m = base
	m.MaxCycles = 12
	mutations["MaxCycles"] = m
	m = base
	m.MaxConflicts = 1000
	mutations["MaxConflicts"] = m
	m = base
	m.MatcherMaxRounds = 3
	mutations["MatcherMaxRounds"] = m
	m = base
	m.MatcherMaxNodes = 500
	mutations["MatcherMaxNodes"] = m
	m = base
	m.DisableAtMostOnce = true
	mutations["DisableAtMostOnce"] = m
	m = base
	m.Certify = true
	mutations["Certify"] = m
	for field, cfg := range mutations {
		if got := Key(g, cfg); got == want {
			t.Errorf("changing %s did not change the key", field)
		}
	}
}

// TestKeyNormalization: default-equivalent configurations share a key,
// so e.g. a CLI compile (Arch "") and a serve compile (Arch "ev6") of
// the same program hit the same entry.
func TestKeyNormalization(t *testing.T) {
	g := parseGMAs(t, programs.Quickstart)[0]
	base := KeyConfig{AxiomVersion: "ax0", BuildVersion: "b0"}
	archDefault := base
	archDefault.Arch = "ev6"
	if Key(g, base) != Key(g, archDefault) {
		t.Error(`Arch "" and "ev6" should share a key`)
	}
	strategyDefault := base
	strategyDefault.Strategy = "linear"
	if Key(g, base) != Key(g, strategyDefault) {
		t.Error(`Strategy "" and "linear" should share a key`)
	}
	cyclesDefault := base
	cyclesDefault.MaxCycles = 24
	if Key(g, base) != Key(g, cyclesDefault) {
		t.Error("MaxCycles 0 and 24 should share a key")
	}
}

// TestKeyShape: keys are 64-hex SHA-256 digests, directly usable as
// content-addressed filenames.
func TestKeyShape(t *testing.T) {
	g := parseGMAs(t, programs.Quickstart)[0]
	k := Key(g, KeyConfig{})
	if !validKey(k) {
		t.Fatalf("key %q is not 64 lowercase hex digits", k)
	}
	if k != Key(g, KeyConfig{}) {
		t.Fatal("key is not deterministic")
	}
}

// TestAxiomVersion: the bundle hash is deterministic, moves when the
// bundle changes, and is order-sensitive (the compile consumes axioms in
// order, so order is part of the identity).
func TestAxiomVersion(t *testing.T) {
	axs, err := axioms.Builtin()
	if err != nil {
		t.Fatal(err)
	}
	v := AxiomVersion(axs)
	if v != AxiomVersion(axs) {
		t.Fatal("AxiomVersion is not deterministic")
	}
	if len(v) != 24 || strings.ToLower(v) != v {
		t.Fatalf("want 24 lowercase hex digits, got %q", v)
	}
	extra, err := axioms.ParseAll(`(\axiom (forall (x) (eq (\bis x x) x)))`, "test")
	if err != nil {
		t.Fatal(err)
	}
	if AxiomVersion(append(append([]*axioms.Axiom(nil), axs...), extra...)) == v {
		t.Error("appending an axiom should change the version")
	}
	if len(axs) >= 2 {
		swapped := append([]*axioms.Axiom(nil), axs...)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		if AxiomVersion(swapped) == v {
			t.Error("reordering axioms should change the version")
		}
	}
}
