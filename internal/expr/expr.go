// Package expr implements the symbolic expression language E of the paper
// (Section 3.1):
//
//	E ≔ R | F | W | V | E × N | Op × [E]
//
// Expressions are immutable trees built through smart constructors that
// perform light canonicalisation (constant folding, sum normalisation).
// A distinguished subset of expressions, the constant expressions C, contain
// no registers, flags or memory regions: they are built from machine words,
// variables such as rdi0 (the initial value of register rdi) and operator
// applications over those. Predicates map state parts to constant
// expressions, so most expressions manipulated by the lifter are in C.
package expr

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Var is a symbolic variable V: an opaque 64-bit unknown. By convention the
// lifter uses names like "rdi0" (initial register values), "v17" (fresh
// unknowns introduced by overapproximation), "S_401000" (the symbolic return
// address of the function at 0x401000) and "mem0_601000_8" (the initial
// contents of a global region).
type Var string

// Kind discriminates the expression forms of E.
type Kind uint8

// The expression forms.
const (
	KindWord  Kind = iota // a 64-bit machine word W
	KindVar               // a symbolic variable V
	KindDeref             // a memory region read  *[addr, size]
	KindOp                // an operator application Op × [E]
)

// Op enumerates the operators available in operator applications. All
// arithmetic is 64-bit two's complement; narrower x86 operations are
// expressed by composing an operator with a zero- or sign-extension.
type Op uint8

// The operator alphabet.
const (
	OpInvalid Op = iota
	OpAdd        // n-ary sum
	OpMul        // n-ary product
	OpUDiv       // unsigned division
	OpURem       // unsigned remainder
	OpSDiv       // signed division
	OpSRem       // signed remainder
	OpAnd        // bitwise and
	OpOr         // bitwise or
	OpXor        // bitwise xor
	OpShl        // logical shift left
	OpShr        // logical shift right
	OpSar        // arithmetic shift right
	OpNot        // bitwise complement
	OpNeg        // two's complement negation
	OpSExt8      // sign extension of the low 8 bits
	OpSExt16     // sign extension of the low 16 bits
	OpSExt32     // sign extension of the low 32 bits
	OpRol        // rotate left (64-bit)
	OpRor        // rotate right (64-bit)
)

var opNames = map[Op]string{
	OpAdd: "add", OpMul: "mul", OpUDiv: "udiv", OpURem: "urem",
	OpSDiv: "sdiv", OpSRem: "srem", OpAnd: "and", OpOr: "or",
	OpXor: "xor", OpShl: "shl", OpShr: "shr", OpSar: "sar",
	OpNot: "not", OpNeg: "neg", OpSExt8: "sext8", OpSExt16: "sext16",
	OpSExt32: "sext32", OpRol: "rol", OpRor: "ror",
}

// String returns the lower-case mnemonic of the operator.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Expr is an immutable symbolic expression. Use the package-level
// constructors; the zero value is not a valid expression. Every Expr is
// hash-consed (see intern.go): structurally equal expressions returned by
// the constructors are pointer-identical, each node carries a precomputed
// structural fingerprint, and the canonical Key and String renderings are
// computed at most once per node (atomically, since interned nodes are
// shared across the pipeline's lift workers). A sum's linear normal form
// (ToLinear) is cached the same way.
type Expr struct {
	kind Kind
	word uint64
	v    Var
	op   Op
	size uint8 // KindDeref: region size in bytes
	args []*Expr
	fp   uint64 // structural fingerprint, fixed at interning

	key atomic.Pointer[string] // canonical key, built at most once
	str atomic.Pointer[string] // String rendering, built at most once
	lin atomic.Pointer[Linear] // linear form of a sum/neg/product, built at most once
}

// Word returns the expression denoting the 64-bit constant w.
func Word(w uint64) *Expr {
	if w < uint64(len(smallWords)) {
		if e := smallWords[w]; e != nil {
			return e
		}
	}
	return intern(KindWord, w, "", 0, 0, nil, fpWord(w))
}

// V returns the expression denoting the symbolic variable name.
func V(name Var) *Expr {
	return intern(KindVar, 0, name, 0, 0, nil, fpVar(name))
}

// Deref returns the expression *[addr, size]: the value read from the
// size-byte little-endian memory region starting at addr.
func Deref(addr *Expr, size int) *Expr {
	var argv [1]*Expr
	argv[0] = addr
	return intern(KindDeref, 0, "", 0, uint8(size), argv[:], fpDeref(uint8(size), addr.fp))
}

// Kind reports the form of the expression.
func (e *Expr) Kind() Kind { return e.kind }

// WordVal returns the constant word of a KindWord expression.
func (e *Expr) WordVal() uint64 { return e.word }

// VarName returns the variable of a KindVar expression.
func (e *Expr) VarName() Var { return e.v }

// OpKind returns the operator of a KindOp expression.
func (e *Expr) OpKind() Op { return e.op }

// Size returns the region size in bytes of a KindDeref expression.
func (e *Expr) Size() int { return int(e.size) }

// Args returns the operand list of a KindOp or KindDeref expression.
// Callers must not mutate the returned slice.
func (e *Expr) Args() []*Expr { return e.args }

// IsWord reports whether e is the constant w.
func (e *Expr) IsWord(w uint64) bool { return e.kind == KindWord && e.word == w }

// AsWord returns the constant value of e and whether e is a constant.
func (e *Expr) AsWord() (uint64, bool) {
	if e.kind == KindWord {
		return e.word, true
	}
	return 0, false
}

// Fingerprint returns the precomputed 64-bit structural fingerprint of the
// expression. Pointer-identical expressions have equal fingerprints;
// distinct interned expressions collide with probability ~2⁻⁶⁴ per pair.
// Exact keying should use the pointer itself; fingerprints are for
// composite cache keys (see solver.Cache).
func (e *Expr) Fingerprint() uint64 { return e.fp }

// Key returns a canonical string key for the expression, suitable for use as
// a map key. Structurally equal expressions have equal keys. The key is
// built on first use and cached on the node; subterm keys are reused, so a
// deep term costs only its top layer once its children have been rendered.
func (e *Expr) Key() string {
	if k := e.key.Load(); k != nil {
		return *k
	}
	var b strings.Builder
	e.writeKey(&b)
	s := b.String()
	if e.key.CompareAndSwap(nil, &s) {
		return s
	}
	// A concurrent builder won the race; both built the same bytes.
	return *e.key.Load()
}

func (e *Expr) writeKey(b *strings.Builder) {
	switch e.kind {
	case KindWord:
		fmt.Fprintf(b, "0x%x", e.word)
	case KindVar:
		b.WriteString(string(e.v))
	case KindDeref:
		b.WriteString("*[")
		b.WriteString(e.args[0].Key())
		fmt.Fprintf(b, ",%d]", e.size)
	case KindOp:
		b.WriteString(e.op.String())
		b.WriteByte('(')
		for i, a := range e.args {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(a.Key())
		}
		b.WriteByte(')')
	}
}

// String renders the expression for humans, following the paper's notation:
// sums print infix with two's-complement constants shown as subtractions
// (rsp0 - 0x28), products as 0x4*x, and region reads as *[a,n]. The
// rendering is deterministic, so it is safe inside canonical clause text.
// Like Key, it is built at most once per interned node.
func (e *Expr) String() string {
	if s := e.str.Load(); s != nil {
		return *s
	}
	s := e.render()
	if e.str.CompareAndSwap(nil, &s) {
		return s
	}
	return *e.str.Load()
}

func (e *Expr) render() string {
	switch e.kind {
	case KindWord:
		return fmt.Sprintf("0x%x", e.word)
	case KindVar:
		return string(e.v)
	case KindDeref:
		return fmt.Sprintf("*[%s,%d]", e.args[0], e.size)
	case KindOp:
		switch e.op {
		case OpAdd:
			var b strings.Builder
			for i, a := range e.args {
				w, isW := a.AsWord()
				neg := isW && w >= 1<<63
				switch {
				case i == 0 && neg:
					fmt.Fprintf(&b, "-0x%x", -w)
				case i == 0:
					b.WriteString(a.String())
				case neg:
					fmt.Fprintf(&b, " - 0x%x", -w)
				default:
					b.WriteString(" + ")
					b.WriteString(a.String())
				}
			}
			return b.String()
		case OpMul:
			var b strings.Builder
			for i, a := range e.args {
				if i > 0 {
					b.WriteByte('*')
				}
				if a.kind == KindOp && (a.op == OpAdd || a.op == OpMul) {
					fmt.Fprintf(&b, "(%s)", a)
				} else {
					b.WriteString(a.String())
				}
			}
			return b.String()
		}
		var b strings.Builder
		b.WriteString(e.op.String())
		b.WriteByte('(')
		for i, a := range e.args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
		}
		b.WriteByte(')')
		return b.String()
	}
	return e.Key()
}

// Equal reports structural equality. Interning makes this a pointer
// compare: the constructors return the canonical node for every term, so
// distinct pointers are distinct terms. The recursive structural walk
// survives only as a debug-mode cross-check (EXPRDEBUG=1) that panics if
// the intern invariant is ever violated.
func (e *Expr) Equal(o *Expr) bool {
	if debugEqual {
		if structuralEq(e, o) != (e == o) {
			panic("expr: intern invariant violated: structural equality disagrees with pointer identity")
		}
	}
	return e == o
}

// IsConstExpr reports whether e lies in the constant-expression subset C:
// no registers, flags or region reads occur in e. Variables denote fixed
// (if unknown) values, so they are constant in the paper's sense.
func (e *Expr) IsConstExpr() bool {
	switch e.kind {
	case KindWord, KindVar:
		return true
	case KindDeref:
		return false
	case KindOp:
		for _, a := range e.args {
			if !a.IsConstExpr() {
				return false
			}
		}
		return true
	}
	return false
}

// Vars appends the set of variables occurring in e to dst and returns it.
func (e *Expr) Vars(dst []Var) []Var {
	switch e.kind {
	case KindVar:
		return append(dst, e.v)
	case KindOp, KindDeref:
		for _, a := range e.args {
			dst = a.Vars(dst)
		}
	}
	return dst
}

// ContainsVar reports whether variable v occurs in e.
func (e *Expr) ContainsVar(v Var) bool {
	switch e.kind {
	case KindVar:
		return e.v == v
	case KindOp, KindDeref:
		for _, a := range e.args {
			if a.ContainsVar(v) {
				return true
			}
		}
	}
	return false
}

// ContainsDeref reports whether any region read occurs in e.
func (e *Expr) ContainsDeref() bool {
	switch e.kind {
	case KindDeref:
		return true
	case KindOp:
		for _, a := range e.args {
			if a.ContainsDeref() {
				return true
			}
		}
	}
	return false
}

// newOp builds a raw operator application without simplification.
func newOp(op Op, args ...*Expr) *Expr {
	return intern(KindOp, 0, "", op, 0, args, fpOp(op, args))
}

// sortArgs returns args sorted by canonical key (for commutative
// operators). Already-sorted slices — the common case, since most
// operands arrive from previously canonicalised terms — are returned
// as-is without copying.
func sortArgs(args []*Expr) []*Expr {
	sorted := true
	for i := 1; i < len(args); i++ {
		if args[i-1].Key() > args[i].Key() {
			sorted = false
			break
		}
	}
	if sorted {
		return args
	}
	s := make([]*Expr, len(args))
	copy(s, args)
	sort.Slice(s, func(i, j int) bool { return s[i].Key() < s[j].Key() })
	return s
}
