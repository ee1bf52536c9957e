package pred

import (
	"testing"
	"testing/quick"

	"repro/internal/expr"
	"repro/internal/x86"
)

func TestRegClauses(t *testing.T) {
	p := New()
	if p.Reg(x86.RAX) != nil {
		t.Fatal("fresh predicate must be ⊤")
	}
	p.SetReg(x86.RAX, expr.V("rdi0"))
	if got := p.Reg(x86.RAX); !got.Equal(expr.V("rdi0")) {
		t.Fatalf("rax = %v", got)
	}
	p.SetReg(x86.RAX, nil)
	if p.Reg(x86.RAX) != nil {
		t.Fatal("clearing failed")
	}
}

func TestMemClauses(t *testing.T) {
	p := New()
	addr := expr.Add(expr.V("rsp0"), expr.Word(0xfffffffffffffff8)) // rsp0 - 8
	p.WriteMem(addr, 8, expr.V("rbx0"))
	if v, ok := p.ReadMem(addr, 8); !ok || !v.Equal(expr.V("rbx0")) {
		t.Fatalf("read back: %v %v", v, ok)
	}
	// Different size is a different region clause.
	if _, ok := p.ReadMem(addr, 4); ok {
		t.Fatal("size must distinguish clauses")
	}
	p.DropMem(addr, 8)
	if _, ok := p.ReadMem(addr, 8); ok {
		t.Fatal("drop failed")
	}
}

func TestRanges(t *testing.T) {
	p := New()
	v := expr.V("x")
	p.AddRange(v, Range{0, 0xc3})
	r, ok := p.RangeOf(v)
	if !ok || r != (Range{0, 0xc3}) {
		t.Fatalf("range: %+v %v", r, ok)
	}
	// Intersection narrows.
	p.AddRange(v, Range{5, 0x200})
	r, _ = p.RangeOf(v)
	if r != (Range{5, 0xc3}) {
		t.Fatalf("narrowed: %+v", r)
	}
	// Contradiction ⇒ ⊥.
	p.AddRange(v, Range{0x300, 0x400})
	if !p.IsBot() {
		t.Fatal("contradictory ranges must give ⊥")
	}
}

func TestRangeOfLinear(t *testing.T) {
	p := New()
	v := expr.V("idx")
	p.AddRange(v, Range{0, 10})
	// 4·idx + 0x1000 ∈ [0x1000, 0x1028].
	e := expr.Add(expr.Mul(expr.Word(4), v), expr.Word(0x1000))
	r, ok := p.RangeOf(e)
	if !ok || r != (Range{0x1000, 0x1028}) {
		t.Fatalf("linear range: %+v %v", r, ok)
	}
	// Constant.
	if r, ok := p.RangeOf(expr.Word(7)); !ok || r != (Range{7, 7}) {
		t.Fatal("const range")
	}
	// Unconstrained term: no interval.
	if _, ok := p.RangeOf(expr.V("other")); ok {
		t.Fatal("unconstrained must have no interval")
	}
}

// TestRangeOfCompositeDeterministic stores two compound clauses that both
// bound the query — a+b and 2a+2b — so the composite match has two
// candidates. The narrowest must win on every call, whatever order the
// clause map iterates in.
func TestRangeOfCompositeDeterministic(t *testing.T) {
	a, b := expr.V("a"), expr.V("b")
	p := New()
	p.AddRange(expr.Add(a, b), Range{0, 10})
	p.AddRange(expr.Add(expr.Mul(expr.Word(2), a), expr.Mul(expr.Word(2), b)), Range{0, 4})
	// 4a + 4b + 1: a+b gives [1, 41], 2a+2b gives [1, 9].
	e := expr.Add(expr.Mul(expr.Word(4), expr.Add(a, b)), expr.Word(1))
	for i := 0; i < 100; i++ {
		if r, ok := p.RangeOf(e); !ok || r != (Range{1, 9}) {
			t.Fatalf("call %d: RangeOf(%s) = %+v, %v; want [1, 9]", i, e, r, ok)
		}
	}
}

func TestAddRangeOnWord(t *testing.T) {
	p := New()
	p.AddRange(expr.Word(5), Range{0, 10}) // satisfied, no clause
	if p.IsBot() || len(p.ranges) != 0 {
		t.Fatal("in-range word must be a no-op")
	}
	p.AddRange(expr.Word(50), Range{0, 10})
	if !p.IsBot() {
		t.Fatal("out-of-range word must give ⊥")
	}
}

func TestJoinEqualClausesKept(t *testing.T) {
	p, q := New(), New()
	p.SetReg(x86.RBX, expr.V("rbx0"))
	q.SetReg(x86.RBX, expr.V("rbx0"))
	p.SetReg(x86.RAX, expr.V("a"))
	q.SetReg(x86.RAX, expr.V("b"))
	j := Join(p, q, "v1", NewJoinVars())
	if got := j.Reg(x86.RBX); !got.Equal(expr.V("rbx0")) {
		t.Fatalf("shared clause lost: %v", got)
	}
	// Incompatible values abstract to an unconstrained join variable.
	jv := j.Reg(x86.RAX)
	if jv == nil || jv.Kind() != expr.KindVar {
		t.Fatalf("incompatible clause must abstract to a join variable, got %v", jv)
	}
	if _, ok := j.RangeOf(jv); ok {
		t.Fatal("the abstraction of two unbounded values must be unconstrained")
	}
}

// TestJoinRangeAbstraction reproduces Example 3.4: {a=3} ⊔ {a=4} becomes
// an interval clause a ∈ [3,4].
func TestJoinRangeAbstraction(t *testing.T) {
	p, q := New(), New()
	p.SetReg(x86.RAX, expr.Word(3))
	q.SetReg(x86.RAX, expr.Word(4))
	j := Join(p, q, "v1", NewJoinVars())
	jv := j.Reg(x86.RAX)
	if jv == nil {
		t.Fatal("range abstraction must keep a clause")
	}
	r, ok := j.RangeOf(jv)
	if !ok || r != (Range{3, 4}) {
		t.Fatalf("joined range: %+v %v", r, ok)
	}
	// Joining the result with yet another word widens the interval.
	s := New()
	s.SetReg(x86.RAX, expr.Word(10))
	j2 := Join(s, j, "v1", NewJoinVars())
	r, ok = j2.RangeOf(j2.Reg(x86.RAX))
	if !ok || r != (Range{3, 10}) {
		t.Fatalf("re-joined range: %+v %v", r, ok)
	}
}

func TestJoinIdempotentFixedPoint(t *testing.T) {
	p, q := New(), New()
	p.SetReg(x86.RAX, expr.Word(3))
	q.SetReg(x86.RAX, expr.Word(4))
	j := Join(p, q, "v1", NewJoinVars())
	// p ⊑ j and q ⊑ j.
	if !Leq(p, j, "v1") || !Leq(q, j, "v1") {
		t.Fatal("operands must be below the join")
	}
	// j ⊔ j = j.
	if Join(j, j, "v1", NewJoinVars()).Key() != j.Key() {
		t.Fatal("join must be idempotent")
	}
}

func TestJoinTermination(t *testing.T) {
	// Repeatedly joining ever-growing constants must reach a state where
	// the clause is widened away rather than growing forever.
	cur := New()
	cur.SetReg(x86.RAX, expr.Word(0))
	stable := 0
	for i := 1; i < 100; i++ {
		next := New()
		next.SetReg(x86.RAX, expr.Word(uint64(i)*7))
		j := Join(next, cur, "v9", NewJoinVars())
		if j.Key() == cur.Key() {
			stable++
			if stable > 2 {
				break
			}
		} else {
			stable = 0
		}
		cur = j
	}
	if stable == 0 {
		t.Fatal("join chain did not stabilise")
	}
}

func TestJoinMemory(t *testing.T) {
	addr := expr.Sub(expr.V("rsp0"), expr.Word(16))
	p, q := New(), New()
	p.WriteMem(addr, 8, expr.V("rdi0"))
	q.WriteMem(addr, 8, expr.V("rdi0"))
	q.WriteMem(addr, 4, expr.Word(1)) // only in q
	j := Join(p, q, "v1", NewJoinVars())
	if v, ok := j.ReadMem(addr, 8); !ok || !v.Equal(expr.V("rdi0")) {
		t.Fatal("shared memory clause lost")
	}
	if _, ok := j.ReadMem(addr, 4); ok {
		t.Fatal("one-sided memory clause must be dropped")
	}
	// Word values get range-abstracted.
	p2, q2 := New(), New()
	p2.WriteMem(addr, 8, expr.Word(100))
	q2.WriteMem(addr, 8, expr.Word(200))
	j2 := Join(p2, q2, "v1", NewJoinVars())
	v, ok := j2.ReadMem(addr, 8)
	if !ok {
		t.Fatal("abstracted memory clause missing")
	}
	if r, ok := j2.RangeOf(v); !ok || r != (Range{100, 200}) {
		t.Fatalf("memory range: %+v", r)
	}
}

func TestJoinFlagsAndCmp(t *testing.T) {
	p, q := New(), New()
	c := &Cmp{Kind: CmpSub, Lhs: expr.V("a"), Rhs: expr.Word(0xc3), Size: 4}
	p.SetCmp(c)
	q.SetCmp(&Cmp{Kind: CmpSub, Lhs: expr.V("a"), Rhs: expr.Word(0xc3), Size: 4})
	j := Join(p, q, "v1", NewJoinVars())
	if j.LastCmp() == nil {
		t.Fatal("matching comparison descriptor must survive")
	}
	q.SetCmp(&Cmp{Kind: CmpSub, Lhs: expr.V("b"), Rhs: expr.Word(1), Size: 4})
	if Join(p, q, "v1", NewJoinVars()).LastCmp() != nil {
		t.Fatal("mismatched comparison must be dropped")
	}
	p2, q2 := New(), New()
	p2.SetFlag(x86.ZF, expr.Word(1))
	q2.SetFlag(x86.ZF, expr.Word(1))
	q2.SetFlag(x86.CF, expr.Word(0))
	j2 := Join(p2, q2, "v1", NewJoinVars())
	if j2.Flag(x86.ZF) == nil || j2.Flag(x86.CF) != nil {
		t.Fatal("flag join")
	}
}

func TestJoinBot(t *testing.T) {
	p := New()
	p.SetReg(x86.RAX, expr.Word(1))
	if j := Join(Bot(), p, "v", NewJoinVars()); j.Key() != p.Key() {
		t.Fatal("⊥ ⊔ P must be P")
	}
	if j := Join(p, Bot(), "v", NewJoinVars()); j.Key() != p.Key() {
		t.Fatal("P ⊔ ⊥ must be P")
	}
}

func TestClone(t *testing.T) {
	p := New()
	p.SetReg(x86.RAX, expr.Word(1))
	p.WriteMem(expr.V("rsp0"), 8, expr.V("ret"))
	p.AddRange(expr.V("x"), Range{1, 2})
	q := p.Clone()
	q.SetReg(x86.RAX, expr.Word(2))
	q.WriteMem(expr.V("rsp0"), 8, expr.Word(0))
	q.AddRange(expr.V("x"), Range{2, 2})
	if !p.Reg(x86.RAX).IsWord(1) {
		t.Fatal("clone aliases registers")
	}
	if v, _ := p.ReadMem(expr.V("rsp0"), 8); !v.Equal(expr.V("ret")) {
		t.Fatal("clone aliases memory")
	}
	if r, _ := p.RangeOf(expr.V("x")); r != (Range{1, 2}) {
		t.Fatal("clone aliases ranges")
	}
}

func TestRegsHoldingWordsIn(t *testing.T) {
	p := New()
	p.SetReg(x86.RAX, expr.Word(0x401000))
	p.SetReg(x86.RBX, expr.Word(0x10))
	p.SetReg(x86.RCX, expr.V("x"))
	m := p.RegsHoldingWordsIn(0x400000, 0x500000)
	if len(m) != 1 || m[x86.RAX] != 0x401000 {
		t.Fatalf("code pointers: %v", m)
	}
}

func TestClausesRendering(t *testing.T) {
	p := New()
	if p.String() != "⊤" {
		t.Fatalf("top: %q", p.String())
	}
	if Bot().String() != "⊥" {
		t.Fatal("bot rendering")
	}
	p.SetReg(x86.RSP, expr.V("rsp0"))
	p.WriteMem(expr.V("rsp0"), 8, expr.V("a_r"))
	p.AddRange(expr.V("i"), Range{0, 5})
	s := p.String()
	for _, want := range []string{"rsp == rsp0", "*[rsp0,8] == a_r", "i >= 0x0", "i <= 0x5"} {
		if !contains(s, want) {
			t.Errorf("clauses %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property: the join soundness criterion on point values — any word
// satisfying either operand's register clause satisfies the join (it lies
// in the abstracted interval).
func TestQuickJoinSoundness(t *testing.T) {
	f := func(a, b uint64) bool {
		p, q := New(), New()
		p.SetReg(x86.RAX, expr.Word(a))
		q.SetReg(x86.RAX, expr.Word(b))
		j := Join(p, q, "vq", NewJoinVars())
		jv := j.Reg(x86.RAX)
		if jv == nil {
			return true // dropped clause is trivially sound
		}
		r, ok := j.RangeOf(jv)
		return ok && r.Contains(a) && r.Contains(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: join is commutative up to predicate keys.
func TestQuickJoinCommutative(t *testing.T) {
	f := func(a, b uint64, sameReg bool) bool {
		p, q := New(), New()
		p.SetReg(x86.RAX, expr.Word(a))
		if sameReg {
			q.SetReg(x86.RAX, expr.Word(b))
		} else {
			q.SetReg(x86.RBX, expr.Word(b))
		}
		return Join(p, q, "vc", NewJoinVars()).Key() == Join(q, p, "vc", NewJoinVars()).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
