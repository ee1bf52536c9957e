package expr

import "sort"

// Linear is the linear normal form of an expression:
//
//	K + Σᵢ Cᵢ·tᵢ
//
// where the tᵢ are non-linear atoms (variables, region reads or opaque
// operator applications) and arithmetic is modulo 2⁶⁴. The solver decides
// pointer relations by subtracting linear forms; the predicate layer
// derives intervals from them.
//
// A Linear is a frozen value: its terms are kept in canonical Key() order
// and never change after construction, so copies share the term slice
// safely and ToLinear builds each compound node's form at most once. The
// first term is stored inline, so a single-atom form (base + offset) owns
// no slice at all. Sums under construction live in the mutable linBuilder
// instead.
type Linear struct {
	K     uint64
	first term   // first term in key order; first.atom == nil iff none
	rest  []term // the remaining terms, in key order
}

// term is one coefficient·atom summand; the coefficient is never zero.
type term struct {
	atom  *Expr
	coeff uint64
}

// NumTerms returns the number of distinct non-constant terms.
func (l Linear) NumTerms() int {
	if l.first.atom == nil {
		return 0
	}
	return 1 + len(l.rest)
}

// Term returns the i-th (atom, coefficient) pair in canonical key order,
// 0 ≤ i < NumTerms().
func (l Linear) Term(i int) (atom *Expr, coeff uint64) {
	t := l.at(i)
	return t.atom, t.coeff
}

func (l Linear) at(i int) term {
	if i == 0 {
		return l.first
	}
	return l.rest[i-1]
}

// push appends a term that sorts after every term already present.
func (l *Linear) push(t term) {
	if l.first.atom == nil {
		l.first = t
		return
	}
	l.rest = append(l.rest, t)
}

// Terms calls f for each (atom, coefficient) pair in canonical key order.
func (l Linear) Terms(f func(atom *Expr, coeff uint64)) {
	if l.first.atom == nil {
		return
	}
	f(l.first.atom, l.first.coeff)
	for _, t := range l.rest {
		f(t.atom, t.coeff)
	}
}

// SingleTerm returns the unique (atom, coefficient) pair if the linear form
// has exactly one non-constant term, and reports whether it does.
func (l Linear) SingleTerm() (atom *Expr, coeff uint64, ok bool) {
	if l.first.atom == nil || len(l.rest) != 0 {
		return nil, 0, false
	}
	return l.first.atom, l.first.coeff, true
}

// Const returns the constant value of the linear form and whether it has no
// non-constant terms.
func (l Linear) Const() (uint64, bool) {
	if l.first.atom == nil {
		return l.K, true
	}
	return 0, false
}

// ToLinear returns the linear normal form of e, flattening nested sums,
// differences, negations and multiplications by constants. Constants and
// atoms map to their one-part forms directly; a sum, negation or product
// builds its form on first use and caches it on the node, like Key.
func ToLinear(e *Expr) Linear {
	switch {
	case e.kind == KindWord:
		return Linear{K: e.word}
	case e.kind != KindOp || e.op != OpAdd && e.op != OpNeg && e.op != OpMul:
		return Linear{first: term{e, 1}}
	}
	if l := e.lin.Load(); l != nil {
		return *l
	}
	var b linBuilder
	b.addExpr(e, 1)
	l := b.freeze()
	// A concurrent builder may store first; both built the same form.
	e.lin.CompareAndSwap(nil, &l)
	return l
}

// Sub returns l - m. Both term lists are in key order, so the difference is
// a single merge: no map, no sort, and no allocation unless two or more
// terms survive.
func (l Linear) Sub(m Linear) Linear {
	d := Linear{K: l.K - m.K}
	nl, nm := l.NumTerms(), m.NumTerms()
	for i, j := 0, 0; i < nl || j < nm; {
		var t term
		switch {
		case j == nm:
			t = l.at(i)
			i++
		case i == nl:
			t = m.at(j)
			t.coeff = -t.coeff
			j++
		default:
			a, b := l.at(i), m.at(j)
			switch {
			case a.atom == b.atom:
				t = term{a.atom, a.coeff - b.coeff}
				i++
				j++
			case a.atom.Key() < b.atom.Key():
				t = a
				i++
			default:
				t = term{b.atom, -b.coeff}
				j++
			}
		}
		if t.coeff != 0 {
			d.push(t)
		}
	}
	return d
}

// Expr re-emits the linear form as a canonical expression: terms sorted by
// key, the constant last, coefficient-1 terms bare, ±k coefficients chosen
// to print subtractions where natural.
func (l Linear) Expr() *Expr {
	n := l.NumTerms()
	if n == 0 {
		return Word(l.K)
	}
	args := make([]*Expr, 0, n+1)
	l.Terms(func(atom *Expr, c uint64) {
		if c == 1 {
			args = append(args, atom)
		} else {
			args = append(args, newOp(OpMul, Word(c), atom))
		}
	})
	if l.K != 0 {
		args = append(args, Word(l.K))
	}
	if len(args) == 1 {
		return args[0]
	}
	return newOp(OpAdd, args...)
}

// linBuilder accumulates a linear form while a smart constructor flattens
// a sum: coefficients merge in a map keyed on the interned atom, and
// freeze sorts the survivors into a Linear.
type linBuilder struct {
	k     uint64
	terms map[*Expr]uint64 // atom → coefficient, modulo 2^64
}

func (b *linBuilder) add(e *Expr, c uint64) {
	if c == 0 {
		return
	}
	if old, ok := b.terms[e]; ok {
		if old+c == 0 {
			delete(b.terms, e)
		} else {
			b.terms[e] = old + c
		}
		return
	}
	if b.terms == nil {
		b.terms = map[*Expr]uint64{}
	}
	b.terms[e] = c
}

// addExpr accumulates scale·e.
func (b *linBuilder) addExpr(e *Expr, scale uint64) {
	switch e.kind {
	case KindWord:
		b.k += e.word * scale
	case KindOp:
		switch e.op {
		case OpAdd:
			for _, a := range e.args {
				b.addExpr(a, scale)
			}
			return
		case OpNeg:
			b.addExpr(e.args[0], -scale)
			return
		case OpMul:
			// Fold the constant factors; if at most one non-constant
			// factor remains the product is linear in it.
			k := uint64(1)
			var rest []*Expr
			for _, a := range e.args {
				if w, ok := a.AsWord(); ok {
					k *= w
				} else {
					rest = append(rest, a)
				}
			}
			switch len(rest) {
			case 0:
				b.k += k * scale
				return
			case 1:
				b.addExpr(rest[0], k*scale)
				return
			}
		}
		b.add(e, scale)
	default:
		b.add(e, scale)
	}
}

// freeze returns the accumulated form with its terms in canonical key
// order — the same order the string-keyed map produced, so rendered sums
// are byte-identical.
func (b *linBuilder) freeze() Linear {
	l := Linear{K: b.k}
	switch len(b.terms) {
	case 0:
	case 1:
		for e, c := range b.terms {
			l.first = term{e, c}
		}
	default:
		ts := make([]term, 0, len(b.terms))
		for e, c := range b.terms {
			ts = append(ts, term{e, c})
		}
		sort.Slice(ts, func(i, j int) bool { return ts[i].atom.Key() < ts[j].atom.Key() })
		l.first, l.rest = ts[0], ts[1:]
	}
	return l
}

// Expr emits the accumulated sum in canonical form.
func (b *linBuilder) Expr() *Expr {
	l := b.freeze()
	return l.Expr()
}
