package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"repro/internal/programs"
)

// program is one generated compile input: Denali source plus the name of
// the corpus program or kernel family it came from.
type program struct {
	name string
	src  string
}

// namer hands out fresh, distinct variable names drawn from a seeded
// stream, so every generated program is an alpha-renamed variant.
type namer struct {
	rng  *rand.Rand
	used map[string]bool
}

func newNamer(rng *rand.Rand) *namer { return &namer{rng: rng, used: map[string]bool{}} }

func (n *namer) next() string {
	for {
		s := fmt.Sprintf("v%05x", n.rng.Intn(1<<20))
		if !n.used[s] {
			n.used[s] = true
			return s
		}
	}
}

// kernelDraw is the kernels workload's input set: a fixed mix of
// parametric straight-line kernels whose parameters and variable names
// come from the seed. The mix is fixed so that every seed asks for the
// same amount of work of each kind; only the instances differ.
func kernelDraw(seed int64) []program {
	rng := rand.New(rand.NewSource(seed))
	var ps []program
	add := func(name, src string) { ps = append(ps, program{name: name, src: src}) }
	for _, n := range []int{3, 3, 4, 4} {
		add(fmt.Sprintf("shuffle%d", n), byteShuffle(rng, n, shufflePerm(rng, n)))
	}
	// The 5-byte member is the paper's Figure 3 reversal: compile cost of
	// 5-byte shuffles varies six-fold with the permutation, which would
	// make compile_s measure the seed instead of the compiler.
	rev := []int{4, 3, 2, 1, 0}
	add("shuffle5", byteShuffle(rng, 5, rev))
	for _, n := range []int{4, 4, 5, 5, 6, 6} {
		add(fmt.Sprintf("sum%d", n), nSum(rng, n))
	}
	for i := 0; i < 4; i++ {
		add("scaleoffset", scaleOffset(rng))
	}
	add("lcp2", renameCorpus(rng, programs.Lcp2))
	return ps
}

// shufflePerm draws a permutation of n bytes that moves byte 0. Keeping
// byte 0 in place costs one extra cycle on EV6, so excluding it keeps
// every draw of one size at the same optimum (n+1 cycles).
func shufflePerm(rng *rand.Rand, n int) []int {
	for {
		p := rng.Perm(n)
		if p[0] != 0 {
			return p
		}
	}
}

// byteShuffle builds the Figure 3 byte-move program for an arbitrary
// permutation: byte i of the result is byte perm[i] of the input.
func byteShuffle(rng *rand.Rand, n int, perm []int) string {
	nm := newNamer(rng)
	a, r := nm.next(), nm.next()
	var b strings.Builder
	fmt.Fprintf(&b, "(\\procdecl shuffle%d ((%s long)) long\n  (\\var (%s long 0)\n    (\\semi\n", n, a, r)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "      (:= (%s (\\storeb %s %d (\\selectb %s %d))))\n", r, r, i, a, perm[i])
	}
	fmt.Fprintf(&b, "      (:= (\\res %s)))))\n", r)
	return b.String()
}

// nSum builds an n-operand sum with a seeded operand order and
// association tree.
func nSum(rng *rand.Rand, n int) string {
	nm := newNamer(rng)
	var params, ops []string
	for i := 0; i < n; i++ {
		v := nm.next()
		params = append(params, "("+v+" long)")
		ops = append(ops, v)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	var tree func([]string) string
	tree = func(xs []string) string {
		if len(xs) == 1 {
			return xs[0]
		}
		k := 1 + rng.Intn(len(xs)-1)
		return "(+ " + tree(xs[:k]) + " " + tree(xs[k:]) + ")"
	}
	return fmt.Sprintf("(\\procdecl sum%d (%s) long\n  (:= (\\res %s)))\n", n, strings.Join(params, " "), tree(ops))
}

// scaleOffset builds the quickstart family x*s + c with a seeded scale
// s ∈ {4, 8} and literal offset c ∈ [1, 255]: one s4addq/s8addq.
func scaleOffset(rng *rand.Rand) string {
	x := newNamer(rng).next()
	s := []int{4, 8}[rng.Intn(2)]
	return fmt.Sprintf("(\\procdecl scaleoffset ((%s long)) long\n  (:= (\\res (+ (* %s %d) %d))))\n", x, x, s, 1+rng.Intn(255))
}

// kernelCycles is the optimum of each kernel family, independent of the
// seeded parameters: the reference the kernels workload checks against.
var kernelCycles = map[string]int{
	"shuffle3": 4, "shuffle4": 5, "shuffle5": 6,
	"sum4": 2, "sum5": 3, "sum6": 3,
	"scaleoffset": 1, "lcp2": 3,
}

// deepCorpus lists the deep-certify programs: the paper's loop bodies and
// the deep schedules.
var deepCorpus = []program{
	{"checksum", programs.Checksum},
	{"sumloop", programs.SumLoop},
	{"rowop", programs.Rowop},
	{"popcount", programs.Popcount},
	{"copyloop", programs.CopyLoop},
	{"misschase", programs.MissLoop},
}

// deepDraw alpha-renames every deep-certify program from the seed. The
// programs, and so the work, are the same for every seed.
func deepDraw(seed int64) []program {
	rng := rand.New(rand.NewSource(seed))
	ps := make([]program, len(deepCorpus))
	for i, p := range deepCorpus {
		ps[i] = program{name: p.name, src: renameCorpus(rng, p.src)}
	}
	return ps
}

// serveCorpus is the read set of serve-zipf in popularity order (rank 0
// is the most requested): every corpus program, cheapest first.
var serveCorpus = []program{
	{"quickstart", programs.Quickstart},
	{"lcp2", programs.Lcp2},
	{"copyloop", programs.CopyLoop},
	{"misschase", programs.MissLoop},
	{"byteswap4", programs.Byteswap4},
	{"popcount", programs.Popcount},
	{"rowop", programs.Rowop},
	{"sumloop", programs.SumLoop},
	{"byteswap5", programs.Byteswap5},
	{"checksum", programs.Checksum},
}

// declRE finds declared variable names: procedure parameters and \var
// bindings, both written (name type ...).
var declRE = regexp.MustCompile(`\((\w+) (?:long|short)[ )]`)

// renameCorpus alpha-renames a corpus program: every parameter and local
// variable gets a fresh seeded name. Procedure names, operators and
// axiom variables are left alone, so GMA names and cache keys are stable.
func renameCorpus(rng *rand.Rand, src string) string {
	nm := newNamer(rng)
	to := map[string]string{}
	for _, m := range declRE.FindAllStringSubmatch(src, -1) {
		if name := m[1]; name != "long" && name != "short" && to[name] == "" {
			to[name] = nm.next()
		}
	}
	var b strings.Builder
	for i := 0; i < len(src); {
		c := src[i]
		if !isIdent(c) {
			b.WriteByte(c)
			i++
			continue
		}
		j := i
		for j < len(src) && isIdent(src[j]) {
			j++
		}
		tok := src[i:j]
		if r, ok := to[tok]; ok && (i == 0 || src[i-1] != '\\') {
			tok = r
		}
		b.WriteString(tok)
		i = j
	}
	return b.String()
}

func isIdent(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// freshSpace is the number of distinct never-seen programs freshProgram
// can produce: scale {4, 8} × offset × mask, offsets and masks in [1, 255].
const freshSpace = 2 * 255 * 255

// freshProgram returns the i-th cheap never-seen program of the seeded
// miss stream: (x*s + c) xor m. The index walks the space in a seeded
// order, so distinct indexes give distinct programs and cache keys.
func freshProgram(seed int64, i int) program {
	// 7919 is prime and does not divide freshSpace, so i -> idx is a
	// bijection on [0, freshSpace).
	idx := (int(uint64(seed)%freshSpace) + i*7919) % freshSpace
	s := []int{4, 8}[idx%2]
	c, m := 1+idx/2%255, 1+idx/2/255
	x := fmt.Sprintf("v%05x", (idx*2654435761)&0xfffff)
	return program{name: "fresh", src: fmt.Sprintf(
		"(\\procdecl fresh ((%s long)) long\n  (:= (\\res (\\xor64 (+ (* %s %d) %d) %d))))\n", x, x, s, c, m)}
}

// freshCycles is the optimum of every fresh program: s4addq/s8addq, xor.
const freshCycles = 2
