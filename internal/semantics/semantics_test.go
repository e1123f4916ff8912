package semantics

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/term"
)

func evalW(t *testing.T, src string, env *Env) uint64 {
	t.Helper()
	w, err := EvalWord(term.MustParse(src), env)
	if err != nil {
		t.Fatalf("EvalWord(%s): %v", src, err)
	}
	return w
}

func TestBasicArithmetic(t *testing.T) {
	env := NewEnv()
	env.Words["x"] = 10
	env.Words["y"] = 3
	cases := map[string]uint64{
		"(add64 x y)":   13,
		"(sub64 x y)":   7,
		"(mul64 x y)":   30,
		"(neg64 y)":     ^uint64(2),
		"(not64 0)":     ^uint64(0),
		"(** 2 10)":     1024,
		"(** 2 0)":      1,
		"(** 3 4)":      81,
		"(and64 12 10)": 8,
		"(bis 12 10)":   14,
		"(xor64 12 10)": 6,
		"(bic 12 10)":   4,
		"(sll 1 4)":     16,
		"(sll 1 68)":    16, // shift count is mod 64
		"(srl 256 4)":   16,
		"(cmpeq x x)":   1,
		"(cmpeq x y)":   0,
		"(cmplt y x)":   1,
		"(cmplt -1 0)":  1, // signed
		"(cmpult -1 0)": 0, // unsigned: 2^64-1 is not < 0
		"(cmpule 0 -1)": 1,
		"(cmple x x)":   1,
		"(s4addq y 1)":  13,
		"(s8addq y x)":  34,
		"(s4subq y 1)":  11,
		"(s8subq y 4)":  20,
		"(ldiq 77)":     77,
		"(ornot 0 0)":   ^uint64(0),
		"(eqv 5 5)":     ^uint64(0),
	}
	for src, want := range cases {
		if got := evalW(t, src, env); got != want {
			t.Errorf("%s = %d, want %d", src, got, want)
		}
	}
}

func TestSra(t *testing.T) {
	env := NewEnv()
	if got := evalW(t, "(sra -8 1)", env); got != ^uint64(3) {
		t.Fatalf("sra(-8,1) = %d", got)
	}
	if got := evalW(t, "(sra 8 1)", env); got != 4 {
		t.Fatalf("sra(8,1) = %d", got)
	}
}

func TestByteOps(t *testing.T) {
	env := NewEnv()
	env.Words["w"] = 0x8877665544332211
	cases := map[string]uint64{
		"(selectb w 0)":     0x11,
		"(selectb w 3)":     0x44,
		"(selectb w 7)":     0x88,
		"(selectb w 11)":    0x44, // index masked to 3 bits, like extbl
		"(extbl w 2)":       0x33,
		"(extwl w 0)":       0x2211,
		"(extwl w 2)":       0x4433,
		"(extll w 4)":       0x88776655,
		"(insbl w 3)":       0x11000000,
		"(inswl w 1)":       0x221100,
		"(insll w 0)":       0x44332211,
		"(mskbl w 0)":       0x8877665544332200,
		"(mskwl w 0)":       0x8877665544330000,
		"(storeb w 0 0xff)": 0x88776655443322ff,
		"(storeb w 7 0)":    0x0077665544332211,
		"(zapnot w 3)":      0x2211,
		"(zapnot w 0xff)":   0x8877665544332211,
		"(zap w 3)":         0x8877665544330000,
	}
	for src, want := range cases {
		if got := evalW(t, src, env); got != want {
			t.Errorf("%s = %#x, want %#x", src, got, want)
		}
	}
}

func TestSelectStore(t *testing.T) {
	env := NewEnv()
	env.Words["p"] = 8
	env.MemContents["M"] = map[uint64]uint64{8: 111, 16: 222}
	if got := evalW(t, "(select M p)", env); got != 111 {
		t.Fatalf("select = %d", got)
	}
	if got := evalW(t, "(select (store M p 999) p)", env); got != 999 {
		t.Fatalf("select of store = %d", got)
	}
	if got := evalW(t, "(select (store M p 999) 16)", env); got != 222 {
		t.Fatalf("select past store = %d", got)
	}
	// Nested stores: most recent wins.
	if got := evalW(t, "(select (store (store M p 1) p 2) p)", env); got != 2 {
		t.Fatalf("nested store = %d", got)
	}
}

func TestEvalErrors(t *testing.T) {
	env := NewEnv()
	env.MemContents["M"] = map[uint64]uint64{}
	bad := []string{
		"(frobnicate 1 2)", // unknown op
		"(add64 1)",        // arity
		"unboundvar",       // unbound
		"(add64 M 1)",      // memory where word expected
		"(select 1 2)",     // word where memory expected
		"(select M)",       // select arity
		"(store M 1)",      // store arity
	}
	for _, src := range bad {
		if _, err := Eval(term.MustParse(src), env); err == nil {
			t.Errorf("Eval(%s): expected error", src)
		}
	}
	if _, err := EvalWord(term.NewVar("M"), env); err == nil {
		t.Error("EvalWord of memory: expected error")
	}
}

func TestFoldWord(t *testing.T) {
	if v, ok := FoldWord("add64", []uint64{3, 4}); !ok || v != 7 {
		t.Fatalf("FoldWord add64 = %d,%v", v, ok)
	}
	if _, ok := FoldWord("select", []uint64{1, 2}); ok {
		t.Fatal("select must not fold as a word op")
	}
	if _, ok := FoldWord("add64", []uint64{1}); ok {
		t.Fatal("arity mismatch must not fold")
	}
	if _, ok := FoldWord("nosuch", []uint64{1}); ok {
		t.Fatal("unknown op must not fold")
	}
}

func TestArity(t *testing.T) {
	for op, want := range map[string]int{"add64": 2, "storeb": 3, "neg64": 1, "select": 2, "store": 3} {
		got, ok := Arity(op)
		if !ok || got != want {
			t.Errorf("Arity(%s) = %d,%v want %d", op, got, ok, want)
		}
	}
	if _, ok := Arity("nosuch"); ok {
		t.Error("Arity of unknown op should fail")
	}
}

func TestValuesEqual(t *testing.T) {
	env := NewEnv()
	env.MemContents["M"] = map[uint64]uint64{0: 5}
	m := &Mem{Base: "M"}
	m1 := m.Store(8, 1)
	m2 := m.Store(8, 1).Store(16, 2).Store(16, 2)
	if !ValuesEqual(Word(3), Word(3), env, nil) {
		t.Fatal("words")
	}
	if ValuesEqual(Word(3), Word(4), env, nil) {
		t.Fatal("unequal words")
	}
	if ValuesEqual(Word(3), m1, env, nil) {
		t.Fatal("word vs mem")
	}
	if ValuesEqual(m1, m2, env, nil) {
		t.Fatal("m1 and m2 differ at 16")
	}
	m3 := m.Store(16, 2).Store(8, 1)
	if !ValuesEqual(m2, m3, env, nil) {
		t.Fatal("m2 and m3 should be equal (commuting disjoint stores)")
	}
	// Shadowed writes.
	m4 := m.Store(8, 99).Store(8, 1).Store(16, 2)
	if !ValuesEqual(m2, m4, env, nil) {
		t.Fatal("shadowed write should not matter")
	}
}

// Property tests: algebraic identities the axiom file will assert must hold
// for the reference semantics on random inputs.

func TestAddIdentities(t *testing.T) {
	f := func(x, y, z uint64) bool {
		a := x + y
		return a == y+x && (x+(y+z)) == ((x+y)+z) && x+0 == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestShiftMulIdentity(t *testing.T) {
	// k * 2**n == k << n  for n in 0..63
	f := func(k uint64, n uint8) bool {
		nn := uint64(n % 64)
		p, _ := FoldWord("**", []uint64{2, nn})
		mul, _ := FoldWord("mul64", []uint64{k, p})
		shl, _ := FoldWord("sll", []uint64{k, nn})
		return mul == shl
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestByteIdentities(t *testing.T) {
	f := func(w, x, i uint64) bool {
		sb, _ := FoldWord("storeb", []uint64{w, i, x})
		msk, _ := FoldWord("mskbl", []uint64{w, i})
		ins, _ := FoldWord("insbl", []uint64{x, i})
		if sb != msk|ins {
			return false
		}
		// insbl(w,i) == selectb(w,0) << 8*i
		selb0, _ := FoldWord("selectb", []uint64{w, 0})
		shift, _ := FoldWord("sll", []uint64{selb0, 8 * i})
		insw, _ := FoldWord("insbl", []uint64{w, i})
		if 8*(i&7) == (8*i)&63 && insw != shift {
			return false
		}
		// extbl == selectb
		e, _ := FoldWord("extbl", []uint64{w, i})
		s, _ := FoldWord("selectb", []uint64{w, i})
		return e == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCarryIdentity(t *testing.T) {
	// carry(a,b) = cmpult(a+b, a) = cmpult(a+b, b) — the checksum
	// program's local axioms.
	f := func(a, b uint64) bool {
		s := a + b
		c1, _ := FoldWord("cmpult", []uint64{s, a})
		c2, _ := FoldWord("cmpult", []uint64{s, b})
		carry := uint64(0)
		if s < a {
			carry = 1
		}
		return c1 == carry && (a == 0 || b == 0 || c1 == c2) && (c1 == c2 || a == 0 || b == 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCarryTwoFormsAgree(t *testing.T) {
	// The two carry axioms must agree for ALL inputs, including zeros.
	f := func(a, b uint64) bool {
		s := a + b
		c1, _ := FoldWord("cmpult", []uint64{s, a})
		c2, _ := FoldWord("cmpult", []uint64{s, b})
		return c1 == c2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEnvClone(t *testing.T) {
	env := NewEnv()
	env.Words["x"] = 1
	env.MemContents["M"] = map[uint64]uint64{0: 9}
	c := env.Clone()
	c.Words["x"] = 2
	c.MemContents["M"][0] = 10
	if env.Words["x"] != 1 || env.MemContents["M"][0] != 9 {
		t.Fatal("clone must not share state")
	}
}

func TestKnownOps(t *testing.T) {
	ops := KnownOps()
	found := map[string]bool{}
	for _, op := range ops {
		found[op] = true
	}
	for _, want := range []string{"add64", "select", "store", "extbl", "zapnot", "s4addq"} {
		if !found[want] {
			t.Errorf("KnownOps missing %s", want)
		}
	}
}

// TestCommutativeFlag: every op flagged Commutative is binary and gives
// the same value for both operand orders on random inputs, and every
// unflagged binary op has a counterexample among them. The scheduler
// encodes one machine term for both orders of a flagged op, so a wrong
// flag would let it emit the wrong instruction.
func TestCommutativeFlag(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	inputs := make([][2]uint64, 2000)
	for i := range inputs {
		inputs[i] = [2]uint64{rng.Uint64(), rng.Uint64()}
	}
	// Small values too, so the compares and the byte-index operands meet
	// equal operands and in-range indices.
	for i := 0; i < 200; i++ {
		inputs = append(inputs, [2]uint64{rng.Uint64N(8), rng.Uint64N(8)})
	}
	flagged := 0
	for op, w := range wordOps {
		if w.Commutative && w.Arity != 2 {
			t.Errorf("%s is flagged commutative with arity %d", op, w.Arity)
			continue
		}
		if w.Arity != 2 {
			continue
		}
		counter := -1
		for i, in := range inputs {
			if w.Fn([]uint64{in[0], in[1]}) != w.Fn([]uint64{in[1], in[0]}) {
				counter = i
				break
			}
		}
		switch {
		case w.Commutative && counter >= 0:
			t.Errorf("%s is flagged commutative but %s(%#x, %#x) differs from the swapped order",
				op, op, inputs[counter][0], inputs[counter][1])
		case !w.Commutative && counter < 0:
			t.Errorf("%s commutes on every input tried but is not flagged", op)
		}
		if w.Commutative {
			flagged++
		}
	}
	if flagged != 9 {
		t.Errorf("%d ops flagged commutative, want 9 (add64 mul64 umulh and64 bis xor64 eqv cmpeq cmpne)", flagged)
	}
}
