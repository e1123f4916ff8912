package axioms

import (
	"slices"
	"sync"
)

// MathSource is the built-in mathematical axiom file: facts about functions
// and relations useful for describing many target architectures (section 4
// of the paper). Every axiom here is universally valid for the reference
// semantics — the test suite checks each one on random inputs.
const MathSource = `
; ---------------- addition modulo 2^64 ----------------
(\axiom (forall (x y) (eq (\add64 x y) (\add64 y x))))
(\axiom (forall (x y z) (eq (\add64 x (\add64 y z)) (\add64 (\add64 x y) z))))
(\axiom (forall (x y z) (pats (\add64 (\add64 x y) z))
  (eq (\add64 (\add64 x y) z) (\add64 x (\add64 y z)))))
(\axiom (forall (x) (eq (\add64 x 0) x)))
(\axiom (forall (x) (eq (\add64 0 x) x)))
(\axiom (forall (x) (pats (\add64 x x)) (eq (\add64 x x) (\mul64 x 2))))

; ---------------- subtraction ----------------
(\axiom (forall (x) (eq (\sub64 x 0) x)))
(\axiom (forall (x) (eq (\sub64 x x) 0)))
(\axiom (forall (x) (eq (\sub64 0 x) (\neg64 x))))
(\axiom (forall (x) (pats (\neg64 x)) (eq (\neg64 x) (\sub64 0 x))))

; ---------------- multiplication modulo 2^64 ----------------
(\axiom (forall (x y) (eq (\mul64 x y) (\mul64 y x))))
(\axiom (forall (x y z) (eq (\mul64 x (\mul64 y z)) (\mul64 (\mul64 x y) z))))
(\axiom (forall (x) (eq (\mul64 x 1) x)))
(\axiom (forall (x) (eq (\mul64 1 x) x)))
(\axiom (forall (x) (eq (\mul64 x 0) 0)))
(\axiom (forall (x) (pats (\mul64 x 2)) (eq (\mul64 x 2) (\add64 x x))))

; multiply by a power of two is a left shift (Figure 2 of the paper)
(\axiom (forall (k n) (pats (\mul64 k (** 2 n))) (where (\cmpult n 64))
  (eq (\mul64 k (** 2 n)) (\sll k n))))
(\axiom (forall (k n) (pats (\mul64 (** 2 n) k)) (where (\cmpult n 64))
  (eq (\mul64 (** 2 n) k) (\sll k n))))

; ---------------- shifts ----------------
(\axiom (forall (x) (eq (\sll x 0) x)))
(\axiom (forall (x) (eq (\srl x 0) x)))
(\axiom (forall (x) (eq (\sra x 0) x)))

; ---------------- select/store (memory) ----------------
(\axiom (forall (a i x) (eq (\select (\store a i x) i) x)))
(\axiom (forall (a i j x) (pats (\select (\store a i x) j))
  (or (eq i j)
      (eq (\select (\store a i x) j) (\select a j)))))

; ---------------- bytes within a word ----------------
; storeb decomposes into mask + insert + or.
(\axiom (forall (w i x) (pats (\storeb w i x))
  (eq (\storeb w i x) (\bis (\mskbl w i) (\insbl x i)))))
; masking a byte that an insert did not set is a no-op
(\axiom (forall (x i j) (pats (\mskbl (\insbl x i) j))
  (where (\cmpne (\and64 i 7) (\and64 j 7)))
  (eq (\mskbl (\insbl x i) j) (\insbl x i))))
; masking distributes over or
(\axiom (forall (u v j) (pats (\mskbl (\bis u v) j))
  (eq (\mskbl (\bis u v) j) (\bis (\mskbl u j) (\mskbl v j)))))
; byte extracts live entirely in byte 0
(\axiom (forall (w i j) (pats (\mskbl (\selectb w i) j))
  (where (\cmpne (\and64 j 7) 0))
  (eq (\mskbl (\selectb w i) j) (\selectb w i))))
(\axiom (forall (w i j) (pats (\mskbl (\extbl w i) j))
  (where (\cmpne (\and64 j 7) 0))
  (eq (\mskbl (\extbl w i) j) (\extbl w i))))

; ---------------- bitwise booleans ----------------
(\axiom (forall (x y) (eq (\bis x y) (\bis y x))))
(\axiom (forall (x y z) (eq (\bis x (\bis y z)) (\bis (\bis x y) z))))
(\axiom (forall (x y z) (pats (\bis (\bis x y) z))
  (eq (\bis (\bis x y) z) (\bis x (\bis y z)))))
(\axiom (forall (x) (eq (\bis x 0) x)))
(\axiom (forall (x) (eq (\bis 0 x) x)))
(\axiom (forall (x) (eq (\bis x x) x)))
(\axiom (forall (x y) (eq (\and64 x y) (\and64 y x))))
(\axiom (forall (x y z) (eq (\and64 x (\and64 y z)) (\and64 (\and64 x y) z))))
(\axiom (forall (x y z) (pats (\and64 (\and64 x y) z))
  (eq (\and64 (\and64 x y) z) (\and64 x (\and64 y z)))))
(\axiom (forall (x) (eq (\and64 x -1) x)))
(\axiom (forall (x) (eq (\and64 x 0) 0)))
(\axiom (forall (x) (eq (\and64 x x) x)))
(\axiom (forall (x y) (eq (\xor64 x y) (\xor64 y x))))
(\axiom (forall (x y z) (eq (\xor64 x (\xor64 y z)) (\xor64 (\xor64 x y) z))))
(\axiom (forall (x y z) (pats (\xor64 (\xor64 x y) z))
  (eq (\xor64 (\xor64 x y) z) (\xor64 x (\xor64 y z)))))

; ---------------- further bitwise identities ----------------
; De Morgan through ornot/bic/eqv
(\axiom (forall (x y) (pats (\bic x y)) (eq (\bic x y) (\and64 x (\not64 y)))))
(\axiom (forall (x y) (pats (\and64 x (\not64 y))) (eq (\and64 x (\not64 y)) (\bic x y))))
(\axiom (forall (x y) (pats (\ornot x y)) (eq (\ornot x y) (\bis x (\not64 y)))))
(\axiom (forall (x y) (pats (\bis x (\not64 y))) (eq (\bis x (\not64 y)) (\ornot x y))))
(\axiom (forall (x y) (pats (\eqv x y)) (eq (\eqv x y) (\xor64 x (\not64 y)))))
(\axiom (forall (x y) (pats (\xor64 x (\not64 y))) (eq (\xor64 x (\not64 y)) (\eqv x y))))
(\axiom (forall (x) (pats (\not64 x)) (eq (\not64 x) (\ornot 0 x))))
(\axiom (forall (x) (pats (\xor64 x -1)) (eq (\xor64 x -1) (\not64 x))))
(\axiom (forall (x) (pats (\not64 x)) (eq (\not64 x) (\xor64 x -1))))

; ---------------- shift compositions ----------------
; clearing the high n bits is shift-up then shift-down (0 < n < 64)
(\axiom (forall (x n) (pats (\srl (\sll x n) n))
  (where (\cmpult 0 n) (\cmpult n 64))
  (eq (\srl (\sll x n) n) (\and64 x (\sub64 (\sll 1 (\sub64 64 n)) 1)))))

; ---------------- comparison facts ----------------
(\axiom (forall (x) (pats (\cmpult x 0)) (eq (\cmpult x 0) 0)))
(\axiom (forall (x) (pats (\cmpult x x)) (eq (\cmpult x x) 0)))
(\axiom (forall (x) (pats (\cmpule 0 x)) (eq (\cmpule 0 x) 1)))
(\axiom (forall (x) (pats (\cmpeq x x)) (eq (\cmpeq x x) 1)))
(\axiom (forall (x y) (pats (\cmpeq (\xor64 x y) 0)) (eq (\cmpeq (\xor64 x y) 0) (\cmpeq x y))))
(\axiom (forall (x y) (pats (\cmpeq (\sub64 x y) 0)) (eq (\cmpeq (\sub64 x y) 0) (\cmpeq x y))))

; ---------------- conditional selection ----------------
(\axiom (forall (c x) (pats (\cmovne c x x)) (eq (\cmovne c x x) x)))
(\axiom (forall (c x y) (pats (\cmovne c x y))
  (eq (\cmovne c x y) (\cmoveq c y x))))
(\axiom (forall (c x y) (pats (\cmoveq c x y))
  (eq (\cmoveq c x y) (\cmovne c y x))))
(\axiom (forall (x) (eq (\xor64 x 0) x)))
(\axiom (forall (x) (eq (\xor64 x x) 0)))
`

// AlphaSource is the built-in architectural axiom file for the Alpha EV6:
// definitions of Alpha operations in terms of mathematical functions, and
// recognitions of Alpha idioms (scaled add, byte extract of a mask).
const AlphaSource = `
; ---------------- byte manipulation (extbl / insbl / mskbl) ----------------
; extbl "extracts" byte i of longword w (paper, section 4)
(\axiom (forall (w i) (pats (\selectb w i)) (eq (\extbl w i) (\selectb w i))))
; insbl places the least significant byte of w at byte i
(\axiom (forall (w i) (pats (\insbl w i))
  (eq (\insbl w i) (\sll (\selectb w 0) (\mul64 8 i)))))
; inserting an extracted low byte is inserting the word itself
(\axiom (forall (w i) (pats (\insbl (\selectb w 0) i))
  (eq (\insbl (\selectb w 0) i) (\insbl w i))))
(\axiom (forall (w i) (pats (\insbl (\extbl w 0) i))
  (eq (\insbl (\extbl w 0) i) (\insbl w i))))
; inserting any extracted byte at position 0 is the extract itself
(\axiom (forall (w i) (pats (\insbl (\selectb w i) 0))
  (eq (\insbl (\selectb w i) 0) (\selectb w i))))
(\axiom (forall (w i) (pats (\insbl (\extbl w i) 0))
  (eq (\insbl (\extbl w i) 0) (\extbl w i))))
; mskbl is storeb of zero
(\axiom (forall (w i) (pats (\storeb w i 0)) (eq (\storeb w i 0) (\mskbl w i))))

; ---------------- word (16-bit) extracts ----------------
(\axiom (forall (w i) (pats (\extwl w i))
  (eq (\extwl w i) (\and64 (\srl w (\mul64 8 i)) 65535))))
(\axiom (forall (w) (pats (\and64 w 255)) (eq (\and64 w 255) (\extbl w 0))))
(\axiom (forall (w) (pats (\and64 w 65535)) (eq (\and64 w 65535) (\extwl w 0))))
(\axiom (forall (w) (pats (\and64 w 65535)) (eq (\and64 w 65535) (\zapnot w 3))))
(\axiom (forall (w) (pats (\and64 w 4294967295))
  (eq (\and64 w 4294967295) (\extll w 0))))
(\axiom (forall (w) (pats (\zapnot w 255)) (eq (\zapnot w 255) w)))

; ---------------- scaled add/subtract ----------------
(\axiom (forall (k n) (pats (\add64 (\mul64 k 4) n))
  (eq (\add64 (\mul64 k 4) n) (\s4addq k n))))
(\axiom (forall (k n) (pats (\add64 n (\mul64 k 4)))
  (eq (\add64 n (\mul64 k 4)) (\s4addq k n))))
(\axiom (forall (k n) (pats (\add64 (\sll k 2) n))
  (eq (\add64 (\sll k 2) n) (\s4addq k n))))
(\axiom (forall (k n) (pats (\add64 (\mul64 k 8) n))
  (eq (\add64 (\mul64 k 8) n) (\s8addq k n))))
(\axiom (forall (k n) (pats (\add64 n (\mul64 k 8)))
  (eq (\add64 n (\mul64 k 8)) (\s8addq k n))))
(\axiom (forall (k n) (pats (\add64 (\sll k 3) n))
  (eq (\add64 (\sll k 3) n) (\s8addq k n))))
(\axiom (forall (k n) (pats (\sub64 (\mul64 k 4) n))
  (eq (\sub64 (\mul64 k 4) n) (\s4subq k n))))
(\axiom (forall (k n) (pats (\sub64 (\mul64 k 8) n))
  (eq (\sub64 (\mul64 k 8) n) (\s8subq k n))))

; ---------------- comparison symmetries ----------------
(\axiom (forall (x y) (pats (\cmpeq x y)) (eq (\cmpeq x y) (\cmpeq y x))))
`

// Math returns the parsed built-in mathematical axioms.
func Math() ([]*Axiom, error) { return ParseAll(MathSource, "math") }

// Alpha returns the parsed built-in Alpha EV6 architectural axioms.
func Alpha() ([]*Axiom, error) { return ParseAll(AlphaSource, "alpha") }

// Builtin returns both built-in axiom sets, math first. They are parsed
// once per process: every call returns a fresh slice, which the caller
// may append to, over the same shared *Axiom values, which nobody may
// modify.
func Builtin() ([]*Axiom, error) {
	axs, err := builtin()
	if err != nil {
		return nil, err
	}
	return slices.Clone(axs), nil
}

var builtin = sync.OnceValues(func() ([]*Axiom, error) {
	m, err := Math()
	if err != nil {
		return nil, err
	}
	a, err := Alpha()
	if err != nil {
		return nil, err
	}
	return append(m, a...), nil
})
