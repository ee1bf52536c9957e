package pred

import (
	"strconv"

	"repro/internal/expr"
	"repro/internal/x86"
)

// Join computes P ⊔ Q per Definition 3.3: clauses present in both operands
// are kept; pairs of equality clauses on the same state part with different
// constant words are merged into interval clauses by range abstraction
// (Example 3.4); clauses with no common abstraction are dropped. The result
// satisfies s ⊢ P ∨ Q ⟹ s ⊢ P ⊔ Q.
//
// Range abstraction introduces a deterministic join variable per state part,
// scoped by vid (the Hoare-graph vertex identity). Determinism makes the
// join idempotent up to predicate keys, so the exploration's fixed point
// (σ ⊑ σc ⟺ σ ⊔ σc = σc) is detectable by comparing keys. Intervals that
// keep growing across joins are widened away after a bounded number of
// growth steps, so there is no infinitely ascending chain.
//
// vars resolves the join variables; the explorer passes one JoinVars per
// lift, so every (vertex, state part) name is rendered and interned once.
func Join(p, q *Pred, vid string, vars *JoinVars) *Pred {
	if p.bot {
		return q.Clone()
	}
	if q.bot {
		return p.Clone()
	}
	// Presized: memory clauses survive only when both sides have them, and
	// the interval clauses mostly carry over from the stored state q.
	out := &Pred{
		mem:    make(map[memKey]MemEntry, min(len(p.mem), len(q.mem))),
		ranges: make(map[*expr.Expr]rangeInfo, len(q.ranges)),
	}

	// Registers.
	for i := range p.regs {
		if p.regs[i] == nil && q.regs[i] == nil {
			continue
		}
		jv := vars.reg(vid, x86.Reg(i))
		e, ri, ok := joinValue(p, q, p.regs[i], q.regs[i], jv)
		if !ok {
			continue
		}
		out.regs[i] = e
		if ri != nil {
			out.ranges[e] = *ri
		}
	}

	// Flags: kept only when equal on both sides.
	for f := range p.flags {
		if p.flags[f] != nil && q.flags[f] != nil && p.flags[f].Equal(q.flags[f]) {
			out.flags[f] = p.flags[f]
		}
	}
	out.cmp = joinCmp(p, q, out)

	// Memory clauses: a region survives only if both operands constrain it.
	for k, pe := range p.mem {
		qe, ok := q.mem[k]
		if !ok {
			continue
		}
		jv := vars.mem(vid, k)
		e, ri, ok := joinValue(p, q, pe.Val, qe.Val, jv)
		if !ok {
			continue
		}
		out.mem[k] = MemEntry{Addr: pe.Addr, Size: pe.Size, Val: e}
		if ri != nil {
			out.ranges[e] = *ri
		}
	}

	// Interval clauses present in both sides: take the hull; widen away
	// intervals that keep growing.
	for k, pri := range p.ranges {
		qri, ok := q.ranges[k]
		if !ok {
			continue
		}
		if _, taken := out.ranges[k]; taken {
			continue // already produced by a join variable above
		}
		hull := Range{Lo: min(pri.r.Lo, qri.r.Lo), Hi: max(pri.r.Hi, qri.r.Hi)}
		widened, grows, ok := growHull(hull, qri.r, max(pri.grows, qri.grows))
		if !ok || widened.Lo == 0 && widened.Hi == ^uint64(0) {
			continue // dropped or vacuous
		}
		out.ranges[k] = rangeInfo{e: pri.e, r: widened, grows: grows}
	}
	return out
}

// joinCmp joins the flag-defining comparison descriptors. Identical
// descriptors are kept. When the left operands differ but both are the
// (width-masked) value of the same register, the descriptor is re-expressed
// over the joined register value — this is what lets a loop's bounds check
// keep refining the joined loop counter.
func joinCmp(p, q, out *Pred) *Cmp {
	pc, qc := p.cmp, q.cmp
	if pc == nil || qc == nil || pc.Kind != qc.Kind || pc.Size != qc.Size || !pc.Rhs.Equal(qc.Rhs) {
		return nil
	}
	if pc.Lhs.Equal(qc.Lhs) {
		return pc
	}
	matches := func(lhs, regVal *expr.Expr) bool {
		if regVal == nil {
			return false
		}
		return lhs.Equal(regVal) || lhs.Equal(expr.ZExt(regVal, pc.Size))
	}
	for i := range p.regs {
		if out.regs[i] == nil {
			continue
		}
		if matches(pc.Lhs, p.regs[i]) && matches(qc.Lhs, q.regs[i]) {
			return &Cmp{
				Kind: pc.Kind,
				Lhs:  expr.ZExt(out.regs[i], pc.Size),
				Rhs:  pc.Rhs,
				Size: pc.Size,
			}
		}
	}
	return nil
}

// joinValue merges the two equality clauses part = pe and part = qe, where
// jv is the state part's join variable. It returns the joined value, an
// optional interval on it, and whether any clause survives.
func joinValue(p, q *Pred, pe, qe, jv *expr.Expr) (*expr.Expr, *rangeInfo, bool) {
	if pe == nil && qe == nil {
		return nil, nil, false
	}
	if pe == nil || qe == nil {
		// One side is unconstrained: the join variable with no interval
		// stands for "some value" — keeping the state part named lets
		// later branch refinements re-bound it.
		return jv, nil, true
	}
	if pe.Equal(qe) {
		// Identical values are kept as-is — unless they are interval
		// abstractions (a stored clause constrains them), in which case
		// they are re-abstracted to this vertex's join variable so the
		// surviving value can never outlive its interval clause.
		_, pstored := p.ranges[pe]
		_, qstored := q.ranges[pe]
		if !pstored && !qstored {
			return pe, nil, true
		}
	}
	// Abstract each side to an interval: a word is a point interval; any
	// value with a derivable interval abstracts to it (Definition 3.3's
	// range abstraction). Sides with no derivable interval, and hulls
	// that keep growing past the widening stages, abstract to the
	// unconstrained join variable.
	pr, pok := sideRange(p, pe, jv)
	qr, qok := sideRange(q, qe, jv)
	if !pok || !qok {
		return jv, nil, true
	}
	hull := Range{Lo: min(pr.r.Lo, qr.r.Lo), Hi: max(pr.r.Hi, qr.r.Hi)}
	widened, grows, ok := growHull(hull, qr.r, max(pr.grows, qr.grows))
	if !ok || widened.Lo == 0 && widened.Hi == ^uint64(0) {
		return jv, nil, true
	}
	return jv, &rangeInfo{e: jv, r: widened, grows: grows}, true
}

// sideRange abstracts one operand's value to an interval: a word is a
// point interval, and any value with a derivable interval clause (the
// state part's own join variable, another vertex's join variable, a masked
// expression) abstracts to that interval — the range abstraction of
// Definition 3.3.
func sideRange(p *Pred, e, jv *expr.Expr) (rangeInfo, bool) {
	if w, ok := e.AsWord(); ok {
		return rangeInfo{e: jv, r: Range{w, w}}, true
	}
	if r, ok := p.RangeOf(e); ok {
		// The widening counter is per state part per vertex: it carries
		// over only through this part's own join variable. A foreign
		// value's ladder position (e.g. a loop counter joined at another
		// vertex) must not escalate this vertex's widening.
		grows := 0
		if e.Equal(jv) {
			if ri, stored := p.ranges[e]; stored {
				grows = ri.grows
			}
		}
		return rangeInfo{e: jv, r: r, grows: grows}, true
	}
	return rangeInfo{}, false
}

// JoinVars caches the join variables of one lift, keyed by vertex and
// state part, so a revisited vertex resolves each variable with one map
// probe instead of rendering and interning its name again. It is scoped to
// a lift rather than the process: the entries die with the exploration
// instead of accumulating across every unit a long run lifts. Not safe for
// concurrent use; each explorer owns its own.
type JoinVars struct {
	regs map[regPart]*expr.Expr
	mems map[memPart]*expr.Expr
}

type regPart struct {
	vid string
	reg x86.Reg
}

type memPart struct {
	vid string
	k   memKey
}

// NewJoinVars returns an empty cache.
func NewJoinVars() *JoinVars {
	return &JoinVars{regs: map[regPart]*expr.Expr{}, mems: map[memPart]*expr.Expr{}}
}

// reg returns the join variable of register r at vertex vid.
func (c *JoinVars) reg(vid string, r x86.Reg) *expr.Expr {
	k := regPart{vid, r}
	jv, ok := c.regs[k]
	if !ok {
		jv = regJoinVar(vid, r)
		c.regs[k] = jv
	}
	return jv
}

// mem returns the join variable of memory region k at vertex vid.
func (c *JoinVars) mem(vid string, k memKey) *expr.Expr {
	pk := memPart{vid, k}
	jv, ok := c.mems[pk]
	if !ok {
		jv = memJoinVar(vid, k)
		c.mems[pk] = jv
	}
	return jv
}

// regJoinVar renders j<vid>_<reg>.
func regJoinVar(vid string, r x86.Reg) *expr.Expr {
	return expr.V(expr.Var("j" + vid + "_" + r.String()))
}

// memJoinVar renders j<vid>_m<region>. The name embeds the sanitized
// human-readable region key "addr#size", as it always has: names are part
// of the canonical output.
func memJoinVar(vid string, k memKey) *expr.Expr {
	b := make([]byte, 0, 64)
	b = append(b, 'j')
	b = append(b, vid...)
	b = append(b, "_m"...)
	b = appendSanitized(b, k.addr.Key())
	b = append(b, '_') // '#' sanitizes to '_'
	b = strconv.AppendInt(b, int64(k.size), 10)
	return expr.V(expr.Var(b))
}

// appendSanitized appends a region key as an identifier fragment: ASCII
// letters and digits are kept, every other rune becomes one '_'.
func appendSanitized(b []byte, k string) []byte {
	for _, r := range k {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b = append(b, byte(r))
		default:
			b = append(b, '_')
		}
	}
	return b
}

// Leq reports p ⊑ q, i.e. q is equally or more abstract: joining p into q
// at the same vertex changes nothing. Same compares the clause sets directly
// (pointer compares on interned clauses) instead of rendering both
// predicates to key strings.
func Leq(p, q *Pred, vid string) bool {
	return Join(p, q, vid, NewJoinVars()).Same(q)
}
