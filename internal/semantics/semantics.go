// Package semantics defines the reference meaning of every operator that
// appears in Denali terms: the mathematical functions of the built-in axiom
// file (add64, select, store, selectb, storeb, **, ...) and the Alpha
// operations (extbl, insbl, mskbl, sll, cmpult, s4addq, ...).
//
// It is the single source of truth for operator behaviour. The same tables
// drive constant folding in the E-graph, instruction execution in the
// simulator, the brute-force superoptimizer's test screening, and the
// end-to-end verifier that checks generated code against GMA semantics.
//
// Byte-indexed operations mask their index to the low three bits, exactly
// as the Alpha byte-manipulation instructions do, which makes the built-in
// byte axioms valid for all 64-bit inputs (a property the axiom test suite
// checks exhaustively at random).
package semantics

import "math/bits"

// Value is the result of evaluating a term: either a 64-bit Word or a Mem
// (a functional array of 64-bit words indexed by 64-bit addresses).
type Value interface{ isValue() }

// Word is a 64-bit machine word.
type Word uint64

func (Word) isValue() {}

// Mem is an immutable memory value: a base memory (identified by the name
// of the memory variable it arose from) plus a chain of functional stores.
type Mem struct {
	// Base names the memory variable this value derives from, e.g. "M".
	Base   string
	writes *memWrite
}

func (*Mem) isValue() {}

type memWrite struct {
	prev      *memWrite
	addr, val uint64
}

// Store returns a new memory equal to m except that addr maps to val.
func (m *Mem) Store(addr, val uint64) *Mem {
	return &Mem{Base: m.Base, writes: &memWrite{prev: m.writes, addr: addr, val: val}}
}

// Read returns the word at addr, consulting the store chain and falling
// back to base, which supplies the original contents of the memory
// variable (a nil base reads as zero).
func (m *Mem) Read(addr uint64, base map[uint64]uint64) uint64 {
	for w := m.writes; w != nil; w = w.prev {
		if w.addr == addr {
			return w.val
		}
	}
	return base[addr]
}

// Writes returns the addresses written by the store chain, most recent
// first (including shadowed writes).
func (m *Mem) Writes() []uint64 {
	var out []uint64
	for w := m.writes; w != nil; w = w.prev {
		out = append(out, w.addr)
	}
	return out
}

// Env supplies values for the free variables of a term.
type Env struct {
	// Words maps word-valued variable names to their values.
	Words map[string]uint64
	// MemContents maps memory variable names (typically just "M") to
	// their initial contents.
	MemContents map[string]map[uint64]uint64
	// Defs supplies definitional expansions for operators with no
	// built-in semantics.
	Defs map[string]Def
}

// NewEnv returns an empty environment.
func NewEnv() *Env {
	return &Env{Words: map[string]uint64{}, MemContents: map[string]map[uint64]uint64{}}
}

// Clone returns a deep copy of the environment (definitions are shared,
// since they are immutable).
func (e *Env) Clone() *Env {
	c := NewEnv()
	c.Defs = e.Defs
	for k, v := range e.Words {
		c.Words[k] = v
	}
	for k, m := range e.MemContents {
		mm := make(map[uint64]uint64, len(m))
		for a, v := range m {
			mm[a] = v
		}
		c.MemContents[k] = mm
	}
	return c
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func byteShift(i uint64) uint { return uint(8 * (i & 7)) }

// pow64 computes b**e modulo 2^64.
func pow64(b, e uint64) uint64 {
	var r uint64 = 1
	for e > 0 {
		if e&1 == 1 {
			r *= b
		}
		b *= b
		e >>= 1
	}
	return r
}

// WordOp describes a pure word-valued operator.
type WordOp struct {
	Arity int
	// Commutative marks a binary operator whose two operands can be
	// swapped without changing its value. The scheduler encodes one
	// machine term for both operand orders of such an instruction.
	Commutative bool
	Fn          func(a []uint64) uint64
}

// wordOps is the table of all pure (memory-free) operators.
var wordOps = map[string]WordOp{
	// Mathematical operators (built-in axiom file).
	"add64": {Arity: 2, Commutative: true, Fn: func(a []uint64) uint64 { return a[0] + a[1] }},
	"sub64": {Arity: 2, Fn: func(a []uint64) uint64 { return a[0] - a[1] }},
	"mul64": {Arity: 2, Commutative: true, Fn: func(a []uint64) uint64 { return a[0] * a[1] }},
	"neg64": {Arity: 1, Fn: func(a []uint64) uint64 { return -a[0] }},
	"umulh": {Arity: 2, Commutative: true, Fn: func(a []uint64) uint64 { hi, _ := bits.Mul64(a[0], a[1]); return hi }},
	"not64": {Arity: 1, Fn: func(a []uint64) uint64 { return ^a[0] }},
	"**":    {Arity: 2, Fn: func(a []uint64) uint64 { return pow64(a[0], a[1]) }},

	// Byte-array view of a word (selectb/storeb of the paper).
	"selectb": {Arity: 2, Fn: func(a []uint64) uint64 { return (a[0] >> byteShift(a[1])) & 0xff }},
	"storeb": {Arity: 3, Fn: func(a []uint64) uint64 {
		sh := byteShift(a[1])
		return (a[0] &^ (uint64(0xff) << sh)) | ((a[2] & 0xff) << sh)
	}},

	// Alpha integer operate instructions.
	"and64": {Arity: 2, Commutative: true, Fn: func(a []uint64) uint64 { return a[0] & a[1] }},
	"bis":   {Arity: 2, Commutative: true, Fn: func(a []uint64) uint64 { return a[0] | a[1] }},
	"xor64": {Arity: 2, Commutative: true, Fn: func(a []uint64) uint64 { return a[0] ^ a[1] }},
	"bic":   {Arity: 2, Fn: func(a []uint64) uint64 { return a[0] &^ a[1] }},
	"ornot": {Arity: 2, Fn: func(a []uint64) uint64 { return a[0] | ^a[1] }},
	"eqv":   {Arity: 2, Commutative: true, Fn: func(a []uint64) uint64 { return a[0] ^ ^a[1] }},

	"sll": {Arity: 2, Fn: func(a []uint64) uint64 { return a[0] << (a[1] & 63) }},
	"srl": {Arity: 2, Fn: func(a []uint64) uint64 { return a[0] >> (a[1] & 63) }},
	"sra": {Arity: 2, Fn: func(a []uint64) uint64 { return uint64(int64(a[0]) >> (a[1] & 63)) }},

	"cmpeq":  {Arity: 2, Commutative: true, Fn: func(a []uint64) uint64 { return bit(a[0] == a[1]) }},
	"cmpne":  {Arity: 2, Commutative: true, Fn: func(a []uint64) uint64 { return bit(a[0] != a[1]) }},
	"cmplt":  {Arity: 2, Fn: func(a []uint64) uint64 { return bit(int64(a[0]) < int64(a[1])) }},
	"cmple":  {Arity: 2, Fn: func(a []uint64) uint64 { return bit(int64(a[0]) <= int64(a[1])) }},
	"cmpult": {Arity: 2, Fn: func(a []uint64) uint64 { return bit(a[0] < a[1]) }},
	"cmpule": {Arity: 2, Fn: func(a []uint64) uint64 { return bit(a[0] <= a[1]) }},

	"s4addq": {Arity: 2, Fn: func(a []uint64) uint64 { return a[0]*4 + a[1] }},
	"s8addq": {Arity: 2, Fn: func(a []uint64) uint64 { return a[0]*8 + a[1] }},
	"s4subq": {Arity: 2, Fn: func(a []uint64) uint64 { return a[0]*4 - a[1] }},
	"s8subq": {Arity: 2, Fn: func(a []uint64) uint64 { return a[0]*8 - a[1] }},

	"extbl": {Arity: 2, Fn: func(a []uint64) uint64 { return (a[0] >> byteShift(a[1])) & 0xff }},
	"extwl": {Arity: 2, Fn: func(a []uint64) uint64 { return (a[0] >> byteShift(a[1])) & 0xffff }},
	"extll": {Arity: 2, Fn: func(a []uint64) uint64 { return (a[0] >> byteShift(a[1])) & 0xffffffff }},
	"insbl": {Arity: 2, Fn: func(a []uint64) uint64 { return (a[0] & 0xff) << byteShift(a[1]) }},
	"inswl": {Arity: 2, Fn: func(a []uint64) uint64 { return (a[0] & 0xffff) << byteShift(a[1]) }},
	"insll": {Arity: 2, Fn: func(a []uint64) uint64 { return (a[0] & 0xffffffff) << byteShift(a[1]) }},
	"mskbl": {Arity: 2, Fn: func(a []uint64) uint64 { return a[0] &^ (uint64(0xff) << byteShift(a[1])) }},
	"mskwl": {Arity: 2, Fn: func(a []uint64) uint64 { return a[0] &^ (uint64(0xffff) << byteShift(a[1])) }},

	"zap":    {Arity: 2, Fn: func(a []uint64) uint64 { return a[0] & ^zapMask(a[1]) }},
	"zapnot": {Arity: 2, Fn: func(a []uint64) uint64 { return a[0] & zapMask(a[1]) }},

	// Conditional moves: cmovne(cond, src, old) keeps old unless cond is
	// nonzero. (The hardware reads the destination register as the third
	// operand; the model makes that explicit.)
	"cmovne": {Arity: 3, Fn: func(a []uint64) uint64 {
		if a[0] != 0 {
			return a[1]
		}
		return a[2]
	}},
	"cmoveq": {Arity: 3, Fn: func(a []uint64) uint64 {
		if a[0] == 0 {
			return a[1]
		}
		return a[2]
	}},

	// ldiq materializes a constant into a register; as a function it is
	// the identity on its (constant) operand.
	"ldiq": {Arity: 1, Fn: func(a []uint64) uint64 { return a[0] }},
}

// zapMask expands the low 8 bits of m into a byte-granular mask: bit i of m
// selects byte i.
func zapMask(m uint64) uint64 {
	var out uint64
	for i := uint(0); i < 8; i++ {
		if m&(1<<i) != 0 {
			out |= uint64(0xff) << (8 * i)
		}
	}
	return out
}

// LookupWordOp returns the pure word operator named op, if any.
func LookupWordOp(op string) (WordOp, bool) {
	w, ok := wordOps[op]
	return w, ok
}

// FoldWord applies a pure word operator to constant arguments. It returns
// false for unknown operators, arity mismatches, and memory operators.
func FoldWord(op string, args []uint64) (uint64, bool) {
	w, ok := wordOps[op]
	if !ok || w.Arity != len(args) {
		return 0, false
	}
	return w.Fn(args), true
}

// Arity returns the expected argument count of op, covering both word and
// memory operators. The second result is false for unknown operators.
func Arity(op string) (int, bool) {
	if w, ok := wordOps[op]; ok {
		return w.Arity, true
	}
	switch op {
	case "select":
		return 2, true
	case "store":
		return 3, true
	}
	return 0, false
}

// KnownOps returns the names of all operators with built-in semantics.
func KnownOps() []string {
	out := make([]string, 0, len(wordOps)+2)
	for op := range wordOps {
		out = append(out, op)
	}
	return append(out, "select", "store")
}
