package expr

// Smart constructors. Each returns a lightly canonicalised expression:
// constants are folded, sums are flattened through the linear normal form,
// and a handful of algebraic identities that matter for pointer arithmetic
// (x+0, x*1, x&~0, double negation, shifts by constants, extensions of
// constants) are applied. Simplification is deliberately local and cheap —
// deep rewriting is the solver's job.

// Add returns the canonical sum of the operands.
func Add(args ...*Expr) *Expr {
	var l linBuilder
	for _, a := range args {
		l.addExpr(a, 1)
	}
	return l.Expr()
}

// Sub returns a - b.
func Sub(a, b *Expr) *Expr {
	var l linBuilder
	l.addExpr(a, 1)
	l.addExpr(b, ^uint64(0)) // scale -1
	return l.Expr()
}

// Neg returns two's complement negation of a.
func Neg(a *Expr) *Expr {
	var l linBuilder
	l.addExpr(a, ^uint64(0))
	return l.Expr()
}

// Mul returns the canonical product of the operands.
func Mul(args ...*Expr) *Expr {
	k := uint64(1)
	var rest []*Expr
	for _, a := range args {
		if w, ok := a.AsWord(); ok {
			k *= w
		} else if a.kind == KindOp && a.op == OpMul {
			for _, sub := range a.args {
				if w, ok := sub.AsWord(); ok {
					k *= w
				} else {
					rest = append(rest, sub)
				}
			}
		} else {
			rest = append(rest, a)
		}
	}
	if k == 0 {
		return Word(0)
	}
	if len(rest) == 0 {
		return Word(k)
	}
	if len(rest) == 1 {
		if k == 1 {
			return rest[0]
		}
		// k·(linear) distributes.
		var l linBuilder
		l.addExpr(rest[0], k)
		return l.Expr()
	}
	rest = sortArgs(rest)
	if k != 1 {
		rest = append([]*Expr{Word(k)}, rest...)
	}
	return newOp(OpMul, rest...)
}

// And returns the bitwise conjunction a & b.
func And(a, b *Expr) *Expr {
	aw, aok := a.AsWord()
	bw, bok := b.AsWord()
	switch {
	case aok && bok:
		return Word(aw & bw)
	case aok && aw == 0, bok && bw == 0:
		return Word(0)
	case aok && aw == ^uint64(0):
		return b
	case bok && bw == ^uint64(0):
		return a
	}
	if a.Equal(b) {
		return a
	}
	if bok && a.kind == KindOp && a.op == OpAnd {
		// Mask intersection: (x & m1) & m2 = x & (m1 & m2).
		if w, ok := a.args[1].AsWord(); ok {
			if w&bw == w {
				return a // idempotent re-masking
			}
			return And(a.args[0], Word(w&bw))
		}
	}
	// Distribute a constant mask over a two-way disjunction, which
	// collapses the sub-register merge patterns the semantics produce:
	// ((x & ~0xff) | (v & 0xff)) & 0xff = v & 0xff.
	if bok && a.kind == KindOp && a.op == OpOr && len(a.args) == 2 {
		return Or(And(a.args[0], b), And(a.args[1], b))
	}
	args := sortArgs([]*Expr{a, b})
	// Keep constant masks in second position for readability.
	if _, ok := args[0].AsWord(); ok {
		args[0], args[1] = args[1], args[0]
	}
	return newOp(OpAnd, args...)
}

// Or returns the bitwise disjunction a | b.
func Or(a, b *Expr) *Expr {
	aw, aok := a.AsWord()
	bw, bok := b.AsWord()
	switch {
	case aok && bok:
		return Word(aw | bw)
	case aok && aw == 0:
		return b
	case bok && bw == 0:
		return a
	case aok && aw == ^uint64(0), bok && bw == ^uint64(0):
		return Word(^uint64(0))
	}
	if a.Equal(b) {
		return a
	}
	return newOp(OpOr, sortArgs([]*Expr{a, b})...)
}

// Xor returns the bitwise exclusive-or a ^ b.
func Xor(a, b *Expr) *Expr {
	aw, aok := a.AsWord()
	bw, bok := b.AsWord()
	switch {
	case aok && bok:
		return Word(aw ^ bw)
	case aok && aw == 0:
		return b
	case bok && bw == 0:
		return a
	}
	if a.Equal(b) {
		return Word(0)
	}
	return newOp(OpXor, sortArgs([]*Expr{a, b})...)
}

// Not returns the bitwise complement of a.
func Not(a *Expr) *Expr {
	if w, ok := a.AsWord(); ok {
		return Word(^w)
	}
	if a.kind == KindOp && a.op == OpNot {
		return a.args[0]
	}
	return newOp(OpNot, a)
}

// Shl returns a << b (64-bit logical left shift; shifts ≥ 64 yield 0, as a
// symbolic convention — the semantics layer masks x86 shift counts first).
func Shl(a, b *Expr) *Expr {
	if bw, ok := b.AsWord(); ok {
		if bw == 0 {
			return a
		}
		if bw >= 64 {
			return Word(0)
		}
		if aw, ok := a.AsWord(); ok {
			return Word(aw << bw)
		}
		// x << k  =  x · 2^k keeps pointer arithmetic linear.
		return Mul(a, Word(uint64(1)<<bw))
	}
	return newOp(OpShl, a, b)
}

// Shr returns a >> b (logical).
func Shr(a, b *Expr) *Expr {
	if bw, ok := b.AsWord(); ok {
		if bw == 0 {
			return a
		}
		if bw >= 64 {
			return Word(0)
		}
		if aw, ok := a.AsWord(); ok {
			return Word(aw >> bw)
		}
	}
	return newOp(OpShr, a, b)
}

// Sar returns a >> b (arithmetic).
func Sar(a, b *Expr) *Expr {
	if bw, ok := b.AsWord(); ok {
		if bw == 0 {
			return a
		}
		if aw, ok := a.AsWord(); ok {
			if bw >= 64 {
				bw = 63
			}
			return Word(uint64(int64(aw) >> bw))
		}
	}
	return newOp(OpSar, a, b)
}

// UDiv returns the unsigned quotient a / b (b = 0 left symbolic).
func UDiv(a, b *Expr) *Expr {
	if bw, ok := b.AsWord(); ok && bw != 0 {
		if aw, ok := a.AsWord(); ok {
			return Word(aw / bw)
		}
		if bw == 1 {
			return a
		}
	}
	return newOp(OpUDiv, a, b)
}

// URem returns the unsigned remainder a % b.
func URem(a, b *Expr) *Expr {
	if bw, ok := b.AsWord(); ok && bw != 0 {
		if aw, ok := a.AsWord(); ok {
			return Word(aw % bw)
		}
		if bw == 1 {
			return Word(0)
		}
	}
	return newOp(OpURem, a, b)
}

// SDiv returns the signed quotient.
func SDiv(a, b *Expr) *Expr {
	if bw, ok := b.AsWord(); ok && bw != 0 {
		if aw, ok := a.AsWord(); ok && !(int64(aw) == -1<<63 && int64(bw) == -1) {
			return Word(uint64(int64(aw) / int64(bw)))
		}
	}
	return newOp(OpSDiv, a, b)
}

// SRem returns the signed remainder.
func SRem(a, b *Expr) *Expr {
	if bw, ok := b.AsWord(); ok && bw != 0 {
		if aw, ok := a.AsWord(); ok && !(int64(aw) == -1<<63 && int64(bw) == -1) {
			return Word(uint64(int64(aw) % int64(bw)))
		}
	}
	return newOp(OpSRem, a, b)
}

// masks for the sized extensions.
const (
	Mask8  = uint64(0xff)
	Mask16 = uint64(0xffff)
	Mask32 = uint64(0xffffffff)
)

// ZExt returns the zero extension of the low size bytes of a (size ∈
// {1, 2, 4, 8}). Zero extension is canonically an And with the mask.
func ZExt(a *Expr, size int) *Expr {
	switch size {
	case 1:
		return And(a, Word(Mask8))
	case 2:
		return And(a, Word(Mask16))
	case 4:
		return And(a, Word(Mask32))
	default:
		return a
	}
}

// SExt returns the sign extension of the low size bytes of a.
func SExt(a *Expr, size int) *Expr {
	if w, ok := a.AsWord(); ok {
		switch size {
		case 1:
			return Word(uint64(int64(int8(w))))
		case 2:
			return Word(uint64(int64(int16(w))))
		case 4:
			return Word(uint64(int64(int32(w))))
		default:
			return a
		}
	}
	switch size {
	case 1:
		return newOp(OpSExt8, a)
	case 2:
		return newOp(OpSExt16, a)
	case 4:
		return newOp(OpSExt32, a)
	default:
		return a
	}
}

// Rol returns a rotated left by b bits (64-bit).
func Rol(a, b *Expr) *Expr {
	if bw, ok := b.AsWord(); ok {
		bw &= 63
		if bw == 0 {
			return a
		}
		if aw, ok := a.AsWord(); ok {
			return Word(aw<<bw | aw>>(64-bw))
		}
	}
	return newOp(OpRol, a, b)
}

// Ror returns a rotated right by b bits (64-bit).
func Ror(a, b *Expr) *Expr {
	if bw, ok := b.AsWord(); ok {
		bw &= 63
		if bw == 0 {
			return a
		}
		if aw, ok := a.AsWord(); ok {
			return Word(aw>>bw | aw<<(64-bw))
		}
	}
	return newOp(OpRor, a, b)
}

// App applies op to args through the corresponding smart constructor. It is
// the generic entry point used by the independent triple checker so that it
// canonicalises exactly like the lifter.
func App(op Op, args ...*Expr) *Expr {
	switch op {
	case OpAdd:
		return Add(args...)
	case OpMul:
		return Mul(args...)
	case OpUDiv:
		return UDiv(args[0], args[1])
	case OpURem:
		return URem(args[0], args[1])
	case OpSDiv:
		return SDiv(args[0], args[1])
	case OpSRem:
		return SRem(args[0], args[1])
	case OpAnd:
		return And(args[0], args[1])
	case OpOr:
		return Or(args[0], args[1])
	case OpXor:
		return Xor(args[0], args[1])
	case OpShl:
		return Shl(args[0], args[1])
	case OpShr:
		return Shr(args[0], args[1])
	case OpSar:
		return Sar(args[0], args[1])
	case OpNot:
		return Not(args[0])
	case OpNeg:
		return Neg(args[0])
	case OpSExt8:
		return SExt(args[0], 1)
	case OpSExt16:
		return SExt(args[0], 2)
	case OpSExt32:
		return SExt(args[0], 4)
	case OpRol:
		return Rol(args[0], args[1])
	case OpRor:
		return Ror(args[0], args[1])
	}
	return newOp(op, args...)
}

// Subst returns e with every occurrence of variable v replaced by r,
// re-simplifying along the way. When v does not occur in e the original
// (interned) pointer is returned without rebuilding anything.
func Subst(e *Expr, v Var, r *Expr) *Expr {
	switch e.kind {
	case KindWord:
		return e
	case KindVar:
		if e.v == v {
			return r
		}
		return e
	case KindDeref:
		a := Subst(e.args[0], v, r)
		if a == e.args[0] {
			return e
		}
		return Deref(a, int(e.size))
	case KindOp:
		if !e.ContainsVar(v) {
			return e
		}
		changed := false
		args := make([]*Expr, len(e.args))
		for i, a := range e.args {
			args[i] = Subst(a, v, r)
			if args[i] != a {
				changed = true
			}
		}
		if !changed {
			return e
		}
		return App(e.op, args...)
	}
	return e
}
