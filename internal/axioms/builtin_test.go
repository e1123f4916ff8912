package axioms

import (
	"slices"
	"sync"
	"testing"
)

// TestBuiltinParsedOnce: after the first call, Builtin costs at most the
// copy of its slice; the two source files are not parsed again.
func TestBuiltinParsedOnce(t *testing.T) {
	if _, err := Builtin(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Builtin(); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("Builtin allocates %.0f times per call, want at most 1", n)
	}
}

// TestBuiltinFreshSlice: appending to (or overwriting) one returned slice
// leaves what the next call returns unchanged.
func TestBuiltinFreshSlice(t *testing.T) {
	first, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	want := slices.Clone(first)
	extra, err := ParseAll(`(\axiom (forall (x) (eq (\bis x x) x)))`, "extra")
	if err != nil {
		t.Fatal(err)
	}
	grown := append(first, extra...)
	grown[0] = extra[0]
	next, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(next, want) {
		t.Fatalf("a caller's append changed the bundle: %d axioms, first %s", len(next), next[0].Name)
	}
}

// TestBuiltinConcurrent: goroutines calling Builtin at once (in a
// process's first call, when the test runs alone) get equal bundles: the
// same axioms, in the same order.
func TestBuiltinConcurrent(t *testing.T) {
	got := make([][]*Axiom, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Builtin()
		}()
	}
	wg.Wait()
	want, err := Builtin()
	if err != nil {
		t.Fatal(err)
	}
	for i, axs := range got {
		if errs[i] != nil || !slices.Equal(axs, want) {
			t.Errorf("goroutine %d got %d axioms (error %v), want the same %d shared ones", i, len(axs), errs[i], len(want))
		}
	}
}
