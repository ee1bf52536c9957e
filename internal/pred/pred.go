// Package pred implements the predicates P of the paper (Section 3.1).
//
// A predicate is a set of clauses E □ C relating state parts to constant
// expressions. This implementation stores the clause set in solved form:
//
//   - one equality clause per register whose value is known, e.g.
//     rax = rdi0 + 8;
//   - equality clauses for memory regions, e.g. ∗[rsp0-16, 8] = rbx0;
//   - the flag-defining comparison (what cmp/test/sub last related), from
//     which the individual flag clauses are derived on demand;
//   - interval clauses e ≥ lo, e ≤ hi for constant expressions, produced
//     by branch refinement and by the join's range abstraction.
//
// The special predicates ⊤ (no clauses) and ⊥ (unsatisfiable) are
// represented by the empty predicate and the Bot flag. The join of
// Definition 3.3 merges equality clauses into interval clauses (range
// abstraction, Example 3.4) and drops clauses with no common abstraction.
package pred

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/expr"
	"repro/internal/x86"
)

// Range is an unsigned interval clause lo ≤ e ≤ hi.
type Range struct {
	Lo, Hi uint64
}

// Contains reports whether w lies in the interval.
func (r Range) Contains(w uint64) bool { return r.Lo <= w && w <= r.Hi }

// Width returns the number of values in the interval minus one.
func (r Range) Width() uint64 { return r.Hi - r.Lo }

// CmpKind says how the last flag-setting instruction computed the flags.
type CmpKind uint8

// The flag-defining computations tracked symbolically.
const (
	CmpNone CmpKind = iota
	CmpSub          // cmp / sub: flags of lhs - rhs
	CmpAnd          // test / and / or / xor: flags of the logical result
)

// Cmp is the flag-defining comparison descriptor.
type Cmp struct {
	Kind CmpKind
	Lhs  *expr.Expr // already masked to Size
	Rhs  *expr.Expr
	Size int // operand size in bytes
}

// MemEntry is one memory equality clause ∗[Addr, Size] = Val.
type MemEntry struct {
	Addr *expr.Expr // a constant expression (address in C)
	Size int
	Val  *expr.Expr
}

// memKey identifies a memory region exactly: addresses are interned
// expressions, so the pair (address pointer, size) is a comparable map key
// with the same equality as the old "addrKey#size" string — built for free.
type memKey struct {
	addr *expr.Expr
	size int
}

// Pred is a predicate over concrete states.
type Pred struct {
	bot    bool
	regs   [17]*expr.Expr // indexed by x86.Reg; nil = unconstrained
	flags  [x86.NumFlags]*expr.Expr
	cmp    *Cmp
	mem    map[memKey]MemEntry
	ranges map[*expr.Expr]rangeInfo

	// rkey/rfp cache RangesKey and RangesFingerprint; invalidated whenever
	// the interval clause set mutates (AddRange). Both are immutable values,
	// so Clone may share them.
	rkey   string
	rkeyOK bool
	rfp    uint64
	rfpOK  bool
}

type rangeInfo struct {
	e     *expr.Expr
	r     Range
	grows int // widening counter: how many times the interval grew in joins
}

// Interval widening during joins proceeds in stages: the first growths
// take the exact hull (precise for short case splits), later growths jump
// the upper bound to the next power of two (loop counters with constant
// bounds stabilise after logarithmically many joins), and a clause whose
// interval keeps growing past the saturation point is dropped. This
// guarantees there is no infinitely ascending chain of predicates, i.e.
// the fixed point of Algorithm 1 terminates.
const (
	exactGrows = 8  // growths that take the exact hull
	maxGrows   = 24 // beyond this the clause is dropped
	hiSaturate = uint64(1) << 48
)

// growHull merges a freshly computed hull with the previously stored
// interval: unchanged hulls keep their clause as-is; grown hulls pass
// through the widening stages (exact first, then power-of-sixteen jumps);
// saturated or endlessly growing clauses are dropped.
func growHull(hull, prev Range, grows int) (Range, int, bool) {
	if hull == prev {
		return hull, grows, true
	}
	grows++
	if grows <= exactGrows {
		return hull, grows, true
	}
	if grows > maxGrows || hull.Hi >= hiSaturate {
		return Range{}, grows, false
	}
	// Jump to the next power-of-sixteen bound so ladders stabilise in a
	// handful of joins even for large loop bounds.
	p := uint64(16)
	for p != 0 && p <= hull.Hi {
		p <<= 4
	}
	if p == 0 {
		return Range{}, grows, false
	}
	hull.Hi = p - 1
	return hull, grows, true
}

// New returns the predicate ⊤.
func New() *Pred {
	return &Pred{
		mem:    map[memKey]MemEntry{},
		ranges: map[*expr.Expr]rangeInfo{},
	}
}

// Bot returns the predicate ⊥.
func Bot() *Pred {
	p := New()
	p.bot = true
	return p
}

// IsBot reports whether the predicate is ⊥.
func (p *Pred) IsBot() bool { return p.bot }

// Clone returns a deep copy.
func (p *Pred) Clone() *Pred {
	q := &Pred{
		bot:    p.bot,
		regs:   p.regs,
		flags:  p.flags,
		cmp:    p.cmp,
		mem:    make(map[memKey]MemEntry, len(p.mem)),
		ranges: make(map[*expr.Expr]rangeInfo, len(p.ranges)),
		rkey:   p.rkey,
		rkeyOK: p.rkeyOK,
		rfp:    p.rfp,
		rfpOK:  p.rfpOK,
	}
	for k, v := range p.mem {
		q.mem[k] = v
	}
	for k, v := range p.ranges {
		q.ranges[k] = v
	}
	return q
}

// Reg returns the constant expression the predicate assigns to the full
// 64-bit register, or nil if unconstrained.
func (p *Pred) Reg(r x86.Reg) *expr.Expr {
	if int(r) >= len(p.regs) {
		return nil
	}
	return p.regs[r]
}

// SetReg installs the equality clause r = e (e nil clears the clause).
func (p *Pred) SetReg(r x86.Reg, e *expr.Expr) {
	if int(r) < len(p.regs) {
		p.regs[r] = e
	}
}

// Flag returns the 0/1-valued expression for the given flag, or nil.
func (p *Pred) Flag(f x86.Flag) *expr.Expr { return p.flags[f] }

// SetFlag installs the clause f = e.
func (p *Pred) SetFlag(f x86.Flag, e *expr.Expr) { p.flags[f] = e }

// ClearFlags removes all flag clauses and the comparison descriptor.
func (p *Pred) ClearFlags() {
	for i := range p.flags {
		p.flags[i] = nil
	}
	p.cmp = nil
}

// SetCmp records the flag-defining comparison and clears individual flag
// clauses (they are implied by the descriptor).
func (p *Pred) SetCmp(c *Cmp) {
	p.ClearFlags()
	p.cmp = c
}

// LastCmp returns the flag-defining comparison descriptor, if any.
func (p *Pred) LastCmp() *Cmp { return p.cmp }

// ReadMem returns the value clause for region [addr, size], if present.
func (p *Pred) ReadMem(addr *expr.Expr, size int) (*expr.Expr, bool) {
	e, ok := p.mem[memKey{addr, size}]
	if !ok {
		return nil, false
	}
	return e.Val, true
}

// WriteMem installs the clause ∗[addr, size] = val.
func (p *Pred) WriteMem(addr *expr.Expr, size int, val *expr.Expr) {
	p.mem[memKey{addr, size}] = MemEntry{Addr: addr, Size: size, Val: val}
}

// DropMem removes the value clause for the exact region, if present.
func (p *Pred) DropMem(addr *expr.Expr, size int) {
	delete(p.mem, memKey{addr, size})
}

// MemEntries calls f for every memory clause in canonical order: sorted by
// (address key, size), which coincides with the old "addrKey#size" string
// order because '#' sorts below every character a key can contain.
func (p *Pred) MemEntries(f func(MemEntry)) {
	entries := make([]MemEntry, 0, len(p.mem))
	for _, e := range p.mem {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(i, j int) bool {
		ki, kj := entries[i].Addr.Key(), entries[j].Addr.Key()
		if ki != kj {
			return ki < kj
		}
		return entries[i].Size < entries[j].Size
	})
	for _, e := range entries {
		f(e)
	}
}

// FilterMem keeps only the memory clauses for which keep returns true.
func (p *Pred) FilterMem(keep func(MemEntry) bool) {
	for k, e := range p.mem {
		if !keep(e) {
			delete(p.mem, k)
		}
	}
}

// NumMem returns the number of memory clauses.
func (p *Pred) NumMem() int { return len(p.mem) }

// AddRange installs (or narrows) the interval clause lo ≤ e ≤ hi. If e is a
// constant word outside the interval, the predicate becomes ⊥. A clause on
// an offset expression atom + k is normalised to a clause on the atom when
// the shift cannot wrap.
func (p *Pred) AddRange(e *expr.Expr, r Range) {
	if r.Lo == 0 && r.Hi == ^uint64(0) {
		return // vacuous
	}
	p.rkeyOK = false
	p.rfpOK = false
	if w, ok := e.AsWord(); ok {
		if !r.Contains(w) {
			p.bot = true
		}
		return
	}
	if l := expr.ToLinear(e); l.K != 0 && l.K < r.Lo && r.Lo <= r.Hi {
		if atom, coeff, ok := l.SingleTerm(); ok && coeff == 1 {
			p.AddRange(atom, Range{Lo: r.Lo - l.K, Hi: r.Hi - l.K})
			return
		}
	}
	if old, ok := p.ranges[e]; ok {
		// Intersect.
		if r.Lo > old.r.Lo {
			old.r.Lo = r.Lo
		}
		if r.Hi < old.r.Hi {
			old.r.Hi = r.Hi
		}
		if old.r.Lo > old.r.Hi {
			p.bot = true
			return
		}
		p.ranges[e] = old
		return
	}
	p.ranges[e] = rangeInfo{e: e, r: r}
}

// RangeOf computes an unsigned interval for e under the predicate's
// clauses: constants map to point intervals, constrained expressions to
// their stored intervals, and linear combinations to interval arithmetic
// over their parts (with overflow checked). The second result reports
// whether any interval could be derived.
func (p *Pred) RangeOf(e *expr.Expr) (Range, bool) {
	if w, ok := e.AsWord(); ok {
		return Range{w, w}, true
	}
	if ri, ok := p.ranges[e]; ok {
		return ri.r, true
	}
	if r, ok := intrinsicRange(e); ok {
		return r, true
	}
	// Interval arithmetic over the linear form: K + Σ cᵢ·tᵢ where each tᵢ
	// has a known interval and the total cannot wrap.
	l := expr.ToLinear(e)
	if l.NumTerms() == 0 {
		return Range{l.K, l.K}, true
	}
	lo, hi := l.K, l.K
	ok := true
	l.Terms(func(atom *expr.Expr, coeff uint64) {
		if !ok {
			return
		}
		ri, found := p.ranges[atom]
		if !found {
			if ir, irOK := intrinsicRange(atom); irOK {
				ri = rangeInfo{e: atom, r: ir}
			} else {
				ok = false
				return
			}
		}
		// Only handle positive "small" coefficients; anything else is
		// treated as underivable (sound: we just return no interval).
		if coeff == 0 || coeff > 1<<32 {
			ok = false
			return
		}
		nlo := lo + coeff*ri.r.Lo
		nhi := hi + coeff*ri.r.Hi
		if nlo < lo || nhi < hi || nlo > nhi {
			ok = false // wrapped
			return
		}
		lo, hi = nlo, nhi
	})
	if ok {
		return Range{lo, hi}, true
	}
	// Composite clause match: a stored interval on a compound expression
	// (e.g. rdi0 + rsi0, from a branch refinement) bounds any constant
	// multiple of it: e = scale·ek + K. Every matching clause bounds e
	// soundly; the narrowest one (lowest Lo on ties) is taken, so the
	// answer does not depend on map iteration order.
	var best Range
	found := false
	for _, ri := range p.ranges {
		lk := expr.ToLinear(ri.e)
		scale, matches := linearRatio(l, lk)
		if !matches || scale == 0 || scale > 1<<23 || ri.r.Hi > 1<<40 {
			continue
		}
		base := l.K - scale*lk.K
		r := Range{Lo: base + scale*ri.r.Lo, Hi: base + scale*ri.r.Hi}
		if r.Lo > r.Hi || r.Hi < base {
			continue
		}
		if !found || r.Width() < best.Width() || r.Width() == best.Width() && r.Lo < best.Lo {
			best, found = r, true
		}
	}
	return best, found
}

// linearRatio reports whether the non-constant parts satisfy l = scale·m,
// returning the scale. Both term lists are in canonical key order, so equal
// atom sets line up position by position.
func linearRatio(l, m expr.Linear) (uint64, bool) {
	if l.NumTerms() != m.NumTerms() || m.NumTerms() == 0 {
		return 0, false
	}
	var scale uint64
	for i := range m.NumTerms() {
		la, lc := l.Term(i)
		ma, mc := m.Term(i)
		if la != ma || lc%mc != 0 {
			return 0, false
		}
		if s := lc / mc; scale == 0 {
			scale = s
		} else if s != scale {
			return 0, false
		}
	}
	return scale, true
}

// intrinsicRange derives an interval from the shape of an expression: a
// conjunction with a constant mask is bounded by the mask (this is how
// masked array indices x & (n-1) are proven in bounds).
func intrinsicRange(e *expr.Expr) (Range, bool) {
	if e.Kind() == expr.KindOp && e.OpKind() == expr.OpAnd {
		args := e.Args()
		if len(args) == 2 {
			if w, ok := args[1].AsWord(); ok && w <= 1<<40 {
				return Range{Lo: 0, Hi: w}, true
			}
		}
	}
	return Range{}, false
}

// sortedRanges returns the interval clauses in canonical key order.
func (p *Pred) sortedRanges() []rangeInfo {
	out := make([]rangeInfo, 0, len(p.ranges))
	for _, ri := range p.ranges {
		out = append(out, ri)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].e.Key() < out[j].e.Key() })
	return out
}

// Ranges calls f for every interval clause in canonical key order.
func (p *Pred) Ranges(f func(e *expr.Expr, r Range)) {
	for _, ri := range p.sortedRanges() {
		f(ri.e, ri.r)
	}
}

// Eval is the expression evaluation function of Definition 4.1: it maps a
// state part to the constant expression the predicate assigns to it, or
// nil (⊥ in the paper) when the predicate has no equality clause for it.
// Registers evaluate through Reg; this form evaluates whole expressions
// that may mention registers by substituting their clauses.
func (p *Pred) Eval(e *expr.Expr) *expr.Expr {
	if e == nil {
		return nil
	}
	if e.IsConstExpr() {
		return e
	}
	return nil
}

// CodePointerParts returns a deterministic signature of every state part
// whose equality clause is an immediate word within [lo, hi) — registers
// ("rax=401020") and memory clauses ("m<addr key>=401020") alike — sorted.
// The lifter's compatibility extension refuses to join states whose
// signatures differ: immediate pointers into the text section will highly
// likely influence future control flow (Section 4).
func (p *Pred) CodePointerParts(lo, hi uint64) []string {
	var out []string
	var buf []byte
	part := func(prefix, name string, w uint64) {
		buf = append(append(append(buf[:0], prefix...), name...), '=')
		out = append(out, string(strconv.AppendUint(buf, w, 16)))
	}
	for i, e := range p.regs {
		if e == nil {
			continue
		}
		if w, ok := e.AsWord(); ok && w >= lo && w < hi {
			part("", x86.Reg(i).String(), w)
		}
	}
	for _, m := range p.mem {
		if w, ok := m.Val.AsWord(); ok && w >= lo && w < hi {
			part("m", m.Addr.Key(), w)
		}
	}
	sort.Strings(out)
	return out
}

// RegsHoldingWordsIn returns the registers whose equality clause is an
// immediate word within [lo, hi) — used by the lifter's compatibility
// extension to refuse joining states that disagree on code pointers.
func (p *Pred) RegsHoldingWordsIn(lo, hi uint64) map[x86.Reg]uint64 {
	var out map[x86.Reg]uint64
	for i, e := range p.regs {
		if e == nil {
			continue
		}
		if w, ok := e.AsWord(); ok && w >= lo && w < hi {
			if out == nil {
				out = map[x86.Reg]uint64{}
			}
			out[x86.Reg(i)] = w
		}
	}
	return out
}

// Clauses renders the clause set in a stable human-readable order, the
// form exported to the theory file.
func (p *Pred) Clauses() []string {
	if p.bot {
		return []string{"⊥"}
	}
	var out []string
	for i, e := range p.regs {
		if e != nil {
			out = append(out, fmt.Sprintf("%s == %s", x86.Reg(i), e))
		}
	}
	for f := x86.Flag(0); f < x86.NumFlags; f++ {
		if p.flags[f] != nil {
			out = append(out, fmt.Sprintf("%s == %s", f, p.flags[f]))
		}
	}
	if p.cmp != nil {
		kind := "sub"
		if p.cmp.Kind == CmpAnd {
			kind = "and"
		}
		out = append(out, fmt.Sprintf("flags == %s(%s, %s, %d)", kind, p.cmp.Lhs, p.cmp.Rhs, p.cmp.Size))
	}
	p.MemEntries(func(m MemEntry) {
		out = append(out, fmt.Sprintf("*[%s,%d] == %s", m.Addr, m.Size, m.Val))
	})
	for _, ri := range p.sortedRanges() {
		out = append(out, fmt.Sprintf("%s >= 0x%x", ri.e, ri.r.Lo))
		out = append(out, fmt.Sprintf("%s <= 0x%x", ri.e, ri.r.Hi))
	}
	return out
}

// Key returns a canonical fingerprint of the predicate, used to detect the
// fixed point (σ ⊑ σc iff σ ⊔ σc has the same key as σc).
func (p *Pred) Key() string {
	return strings.Join(p.Clauses(), ";")
}

// RangesKey returns a canonical fingerprint of the interval clause set
// alone. The solver's verdicts depend on the predicate only through RangeOf
// — i.e. through the interval clauses — so this key is sound for memoizing
// Compare while being far cheaper than Key. The result is cached until the
// next AddRange.
func (p *Pred) RangesKey() string {
	if p.rkeyOK {
		return p.rkey
	}
	var b strings.Builder
	for _, ri := range p.sortedRanges() {
		fmt.Fprintf(&b, "%s=%x:%x;", ri.e.Key(), ri.r.Lo, ri.r.Hi)
	}
	p.rkey = b.String()
	p.rkeyOK = true
	return p.rkey
}

// RangesFingerprint returns a 64-bit fingerprint of the interval clause set
// — the cheap form of RangesKey, used by the solver's memo table. Each
// clause hashes to MixFP(MixFP(fp(e), lo), hi) and the clauses combine by
// wrapping addition, so the fingerprint is independent of map iteration
// order without sorting anything. Cached until the next AddRange.
func (p *Pred) RangesFingerprint() uint64 {
	if p.rfpOK {
		return p.rfp
	}
	var h uint64
	for e, ri := range p.ranges {
		h += expr.MixFP(expr.MixFP(e.Fingerprint(), ri.r.Lo), ri.r.Hi)
	}
	p.rfp = h
	p.rfpOK = true
	return h
}

// Same reports exact semantic equality of two predicates: equal clause sets
// up to the canonical Key rendering, ignoring the widening counters (which
// Key also ignores). It is the allocation-free replacement for comparing
// Key() strings when detecting the exploration's fixed point: interning
// makes every clause compare a pointer or integer compare.
func (p *Pred) Same(q *Pred) bool {
	if p == q {
		return true
	}
	if p.bot || q.bot {
		return p.bot == q.bot
	}
	if p.regs != q.regs || p.flags != q.flags {
		return false
	}
	switch {
	case p.cmp == nil && q.cmp == nil:
	case p.cmp == nil || q.cmp == nil:
		return false
	default:
		pc, qc := p.cmp, q.cmp
		if pc.Kind != qc.Kind || pc.Size != qc.Size || pc.Lhs != qc.Lhs || pc.Rhs != qc.Rhs {
			return false
		}
	}
	if len(p.mem) != len(q.mem) || len(p.ranges) != len(q.ranges) {
		return false
	}
	for k, pe := range p.mem {
		if qe, ok := q.mem[k]; !ok || pe.Val != qe.Val {
			return false
		}
	}
	for e, pri := range p.ranges {
		if qri, ok := q.ranges[e]; !ok || pri.r != qri.r {
			return false
		}
	}
	return true
}

// String renders the predicate for humans.
func (p *Pred) String() string {
	c := p.Clauses()
	if len(c) == 0 {
		return "⊤"
	}
	return strings.Join(c, " ∧ ")
}
