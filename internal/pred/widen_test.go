package pred

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/expr"
	"repro/internal/x86"
)

// TestWideningLadder drives a join chain through its three stages: exact
// hulls, power-of-sixteen jumps, and the final drop.
func TestWideningLadder(t *testing.T) {
	cur := New()
	cur.SetReg(x86.RAX, expr.Word(0))
	sawExact, sawJump := false, false
	for i := 1; i < 60; i++ {
		next := New()
		next.SetReg(x86.RAX, expr.Word(uint64(i)))
		j := Join(next, cur, "vw", NewJoinVars())
		v := j.Reg(x86.RAX)
		if v == nil {
			t.Fatalf("iteration %d: clause dropped (never-nil join must keep it)", i)
		}
		r, ok := j.RangeOf(v)
		if !ok {
			// The ladder ended: the variable is unconstrained. Must only
			// happen after a jump stage.
			if !sawJump {
				t.Fatalf("iteration %d: dropped before any jump", i)
			}
			return
		}
		if r.Hi == uint64(i) {
			sawExact = true
		}
		if r.Hi > uint64(i) && (r.Hi+1)&r.Hi == 0 {
			sawJump = true // power-of-two-minus-one bound
		}
		cur = j
	}
	if !sawExact || !sawJump {
		t.Fatalf("ladder stages not observed: exact=%v jump=%v", sawExact, sawJump)
	}
	// With values within a jumped bound the chain is stable.
	stable := New()
	stable.SetReg(x86.RAX, expr.Word(3))
	j := Join(stable, cur, "vw", NewJoinVars())
	if j.Key() != cur.Key() {
		t.Fatal("in-bound value must not change the fixed point")
	}
}

func TestRangesIterator(t *testing.T) {
	p := New()
	p.AddRange(expr.V("b"), Range{1, 2})
	p.AddRange(expr.V("a"), Range{3, 4})
	var got []string
	p.Ranges(func(e *expr.Expr, r Range) {
		got = append(got, e.Key())
	})
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("iteration order: %v", got)
	}
}

func TestCodePointerParts(t *testing.T) {
	p := New()
	p.SetReg(x86.RAX, expr.Word(0x401000))
	p.WriteMem(expr.V("rdi0"), 8, expr.Word(0x401020))
	p.WriteMem(expr.V("rsi0"), 8, expr.Word(0x99)) // not a code pointer
	parts := p.CodePointerParts(0x400000, 0x500000)
	if len(parts) != 2 {
		t.Fatalf("parts: %v", parts)
	}
}

func TestVacuousRangeSkipped(t *testing.T) {
	p := New()
	p.AddRange(expr.V("x"), Range{0, ^uint64(0)})
	if _, ok := p.RangeOf(expr.V("x")); ok {
		t.Fatal("vacuous interval must not be stored")
	}
}

func TestAddRangeShiftNormalisation(t *testing.T) {
	// A clause on x + 5 normalises to a clause on x.
	p := New()
	e := expr.Add(expr.V("x"), expr.Word(5))
	p.AddRange(e, Range{10, 20})
	if r, ok := p.RangeOf(expr.V("x")); !ok || r != (Range{5, 15}) {
		t.Fatalf("shifted clause: %+v %v", r, ok)
	}
}

func TestRangeOfCompositeClause(t *testing.T) {
	// A stored clause on (a + b) bounds 8·(a + b) + k.
	p := New()
	sum := expr.Add(expr.V("a"), expr.V("b"))
	p.AddRange(sum, Range{0, 7})
	e := expr.Add(expr.Mul(expr.Word(8), sum), expr.Word(0x100))
	r, ok := p.RangeOf(e)
	if !ok || r != (Range{0x100, 0x138}) {
		t.Fatalf("composite range: %+v %v", r, ok)
	}
}

func TestJoinCmpRebuild(t *testing.T) {
	// Two states with the same comparison shape over different rax values:
	// the joined descriptor re-expresses over the joined register.
	p, q := New(), New()
	p.SetReg(x86.RAX, expr.Word(3))
	p.SetCmp(&Cmp{Kind: CmpSub, Lhs: expr.Word(3), Rhs: expr.Word(7), Size: 8})
	q.SetReg(x86.RAX, expr.Word(5))
	q.SetCmp(&Cmp{Kind: CmpSub, Lhs: expr.Word(5), Rhs: expr.Word(7), Size: 8})
	j := Join(p, q, "vc", NewJoinVars())
	c := j.LastCmp()
	if c == nil {
		t.Fatal("descriptor must be rebuilt over the joined register")
	}
	if !c.Lhs.Equal(j.Reg(x86.RAX)) {
		t.Fatalf("rebuilt lhs: %v vs reg %v", c.Lhs, j.Reg(x86.RAX))
	}
}

// TestJoinVarNames checks the cached join variables byte for byte against
// the fmt rendering "j<vid>_<part>", where a memory part is "m" plus the
// region key "addr#size" with every non-alphanumeric rune replaced by '_'.
func TestJoinVarNames(t *testing.T) {
	sanitize := func(k string) string {
		var b strings.Builder
		for _, r := range k {
			if r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' {
				b.WriteRune(r)
			} else {
				b.WriteByte('_')
			}
		}
		return b.String()
	}
	vars := NewJoinVars()
	for _, vid := range []string{"401000", "4010a0/rax=401020", "401234/m*[rsp0,8]=4010f0"} {
		for r := x86.Reg(0); r < 17; r++ {
			want := fmt.Sprintf("j%s_%s", vid, r)
			for i := 0; i < 2; i++ { // first call renders, second hits the cache
				if got := vars.reg(vid, r); got != expr.V(expr.Var(want)) {
					t.Fatalf("reg %s at %s: %s, want %s", r, vid, got, want)
				}
			}
		}
		addrs := []*expr.Expr{
			expr.V("rsp0"),
			expr.Sub(expr.V("rsp0"), expr.Word(0x28)),
			expr.Add(expr.V("rdi0"), expr.Mul(expr.Word(8), expr.V("idx")), expr.Word(4)),
			expr.Deref(expr.Add(expr.V("rsi0"), expr.Word(8)), 8),
			expr.Word(0x601000),
		}
		for _, a := range addrs {
			for _, size := range []int{1, 4, 8, 16} {
				want := fmt.Sprintf("j%s_%s", vid, "m"+sanitize(fmt.Sprintf("%s#%d", a.Key(), size)))
				for i := 0; i < 2; i++ {
					if got := vars.mem(vid, memKey{a, size}); got != expr.V(expr.Var(want)) {
						t.Fatalf("region [%s,%d] at %s: %s, want %s", a, size, vid, got, want)
					}
				}
			}
		}
	}
}

// TestJoinVarsCacheTransparent joins the same operands through a fresh
// cache and, repeatedly, through a warm one: hits must give the result
// the first rendering gave.
func TestJoinVarsCacheTransparent(t *testing.T) {
	vars := NewJoinVars()
	p, q := New(), New()
	p.SetReg(x86.RAX, expr.Word(1))
	q.SetReg(x86.RAX, expr.Word(9))
	p.SetReg(x86.RBX, expr.V("b"))
	p.WriteMem(expr.V("rsp0"), 8, expr.Word(3))
	q.WriteMem(expr.V("rsp0"), 8, expr.V("c"))
	want := Join(p, q, "v7", NewJoinVars()).Key()
	for i := 0; i < 3; i++ {
		if got := Join(p, q, "v7", vars).Key(); got != want {
			t.Fatalf("round %d: warm-cache join %s, fresh-cache join %s", i, got, want)
		}
	}
}
