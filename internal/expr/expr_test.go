package expr

import (
	"testing"
	"testing/quick"
)

func TestWordFolding(t *testing.T) {
	cases := []struct {
		name string
		got  *Expr
		want uint64
	}{
		{"add", Add(Word(3), Word(4)), 7},
		{"add-wrap", Add(Word(^uint64(0)), Word(1)), 0},
		{"sub", Sub(Word(10), Word(3)), 7},
		{"sub-wrap", Sub(Word(0), Word(1)), ^uint64(0)},
		{"mul", Mul(Word(6), Word(7)), 42},
		{"neg", Neg(Word(5)), ^uint64(0) - 4},
		{"and", And(Word(0xff0), Word(0x0ff)), 0x0f0},
		{"or", Or(Word(0xf00), Word(0x00f)), 0xf0f},
		{"xor", Xor(Word(0xff), Word(0x0f)), 0xf0},
		{"not", Not(Word(0)), ^uint64(0)},
		{"shl", Shl(Word(1), Word(12)), 1 << 12},
		{"shr", Shr(Word(1<<12), Word(12)), 1},
		{"sar-neg", Sar(Word(^uint64(0)), Word(63)), ^uint64(0)},
		{"udiv", UDiv(Word(100), Word(7)), 14},
		{"urem", URem(Word(100), Word(7)), 2},
		{"sdiv", SDiv(Word(^uint64(99)), Word(7)), ^uint64(13)},
		{"srem", SRem(Word(^uint64(99)), Word(7)), ^uint64(1)},
		{"sext8", SExt(Word(0x80), 1), (^uint64(0) - 127)},
		{"sext16", SExt(Word(0x8000), 2), (^uint64(0) - 32767)},
		{"sext32", SExt(Word(0x80000000), 4), (^uint64(0) - (1 << 31) + 1)},
		{"zext1", ZExt(Word(0x1234), 1), 0x34},
		{"rol", Rol(Word(0x8000000000000001), Word(1)), 3},
		{"ror", Ror(Word(3), Word(1)), 0x8000000000000001},
	}
	for _, c := range cases {
		w, ok := c.got.AsWord()
		if !ok || w != c.want {
			t.Errorf("%s: got %v, want 0x%x", c.name, c.got, c.want)
		}
	}
}

func TestSumNormalisation(t *testing.T) {
	x, y := V("x"), V("y")
	// x + y + 3 == y + 3 + x (canonical keys equal).
	a := Add(x, y, Word(3))
	b := Add(y, Word(3), x)
	if !a.Equal(b) {
		t.Fatalf("sum not canonical: %v vs %v", a, b)
	}
	// x + x == 2·x.
	if got := Add(x, x); got.Key() != Mul(Word(2), x).Key() {
		t.Fatalf("x+x = %v", got)
	}
	// x - x == 0.
	if !Sub(x, x).IsWord(0) {
		t.Fatalf("x-x = %v", Sub(x, x))
	}
	// (x + 5) - (x + 3) == 2.
	if d := Sub(Add(x, Word(5)), Add(x, Word(3))); !d.IsWord(2) {
		t.Fatalf("offset diff = %v", d)
	}
	// 4·x via shl: x << 2 is linear.
	if got := Shl(x, Word(2)); got.Key() != Mul(Word(4), x).Key() {
		t.Fatalf("x<<2 = %v", got)
	}
	// 2·x + 2·x == 4·x.
	if got := Add(Mul(Word(2), x), Mul(Word(2), x)); got.Key() != Mul(Word(4), x).Key() {
		t.Fatalf("2x+2x = %v", got)
	}
}

func TestNestedLinear(t *testing.T) {
	rsp := V("rsp0")
	// (rsp0 - 8) - 16 + 24 == rsp0.
	e := Add(Sub(Sub(rsp, Word(8)), Word(16)), Word(24))
	if !e.Equal(rsp) {
		t.Fatalf("got %v", e)
	}
	// 3·(rsp0 + 2) == 3·rsp0 + 6.
	e = Mul(Word(3), Add(rsp, Word(2)))
	l := ToLinear(e)
	if atom, c, ok := l.SingleTerm(); l.K != 6 || !ok || atom != rsp || c != 3 {
		t.Fatalf("linear of %v: K=%d term=%v·%v", e, l.K, c, atom)
	}
}

func TestBooleanIdentities(t *testing.T) {
	x := V("x")
	if !And(x, Word(0)).IsWord(0) {
		t.Error("x & 0")
	}
	if got := And(x, Word(^uint64(0))); !got.Equal(x) {
		t.Error("x & ~0")
	}
	if got := Or(x, Word(0)); !got.Equal(x) {
		t.Error("x | 0")
	}
	if !Xor(x, x).IsWord(0) {
		t.Error("x ^ x")
	}
	if got := Not(Not(x)); !got.Equal(x) {
		t.Error("~~x")
	}
	if got := And(x, x); !got.Equal(x) {
		t.Error("x & x")
	}
	// Re-masking is idempotent: (x & 0xff) & 0xffff == x & 0xff.
	m := And(x, Word(Mask8))
	if got := And(m, Word(Mask16)); !got.Equal(m) {
		t.Errorf("remask: %v", got)
	}
}

func TestDerefKeys(t *testing.T) {
	a := Deref(Add(V("rsp0"), Word(8)), 8)
	b := Deref(Add(Word(8), V("rsp0")), 8)
	if a.Key() != b.Key() {
		t.Fatalf("deref keys differ: %q vs %q", a.Key(), b.Key())
	}
	c := Deref(Add(V("rsp0"), Word(8)), 4)
	if a.Key() == c.Key() {
		t.Fatal("size must distinguish regions")
	}
	if a.IsConstExpr() {
		t.Fatal("deref is not a constant expression")
	}
	if !Add(V("rdi0"), Word(8)).IsConstExpr() {
		t.Fatal("rdi0+8 is a constant expression")
	}
}

func TestSubst(t *testing.T) {
	x, y := Var("x"), V("y")
	e := Add(Mul(Word(4), V(x)), Word(10))
	got := Subst(e, x, y)
	want := Add(Mul(Word(4), y), Word(10))
	if !got.Equal(want) {
		t.Fatalf("subst: %v", got)
	}
	// Substituting a constant folds.
	got = Subst(e, x, Word(2))
	if !got.IsWord(18) {
		t.Fatalf("subst const: %v", got)
	}
	// Inside a deref.
	d := Deref(V(x), 8)
	if got := Subst(d, x, Word(0x600000)); got.Key() != Deref(Word(0x600000), 8).Key() {
		t.Fatalf("subst deref: %v", got)
	}
}

func TestVars(t *testing.T) {
	e := Add(V("a"), Deref(Add(V("b"), Word(4)), 8))
	vs := e.Vars(nil)
	if len(vs) != 2 {
		t.Fatalf("vars: %v", vs)
	}
	if !e.ContainsVar("b") || e.ContainsVar("c") {
		t.Fatal("ContainsVar")
	}
	if !e.ContainsDeref() {
		t.Fatal("ContainsDeref")
	}
}

// Property: Add is a homomorphism from machine addition on constants.
func TestQuickAddHomomorphism(t *testing.T) {
	f := func(a, b uint64) bool {
		w, ok := Add(Word(a), Word(b)).AsWord()
		return ok && w == a+b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: for any constants, Sub(Add(x,a),Add(x,b)) folds to a-b
// regardless of the shared symbolic base.
func TestQuickBaseCancellation(t *testing.T) {
	x := V("base")
	f := func(a, b uint64) bool {
		d := Sub(Add(x, Word(a)), Add(x, Word(b)))
		w, ok := d.AsWord()
		return ok && w == a-b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: linear round-trip — ToLinear(e).Expr() has the same key as e for
// canonically built sums.
func TestQuickLinearRoundTrip(t *testing.T) {
	x, y := V("x"), V("y")
	f := func(cx, cy uint8, k uint64) bool {
		e := Add(Mul(Word(uint64(cx)), x), Mul(Word(uint64(cy)), y), Word(k))
		return ToLinear(e).Expr().Equal(e)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: shifts by constant amounts agree with machine shifts.
func TestQuickShifts(t *testing.T) {
	f := func(a uint64, k uint8) bool {
		k %= 64
		shl, ok1 := Shl(Word(a), Word(uint64(k))).AsWord()
		shr, ok2 := Shr(Word(a), Word(uint64(k))).AsWord()
		sar, ok3 := Sar(Word(a), Word(uint64(k))).AsWord()
		return ok1 && ok2 && ok3 &&
			shl == a<<k && shr == a>>k && sar == uint64(int64(a)>>k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKeyStability(t *testing.T) {
	e := Add(V("rdi0"), Word(16))
	k1 := e.Key()
	k2 := e.Key()
	if k1 != k2 || k1 == "" {
		t.Fatal("key caching broken")
	}
	if e.String() != "rdi0 + 0x10" {
		t.Fatalf("pretty rendering: %q", e.String())
	}
}

func TestOpString(t *testing.T) {
	if OpAdd.String() != "add" || OpSExt32.String() != "sext32" {
		t.Fatal("op names")
	}
	if Op(200).String() == "" {
		t.Fatal("unknown op name")
	}
}

func TestPrettyPrinting(t *testing.T) {
	rsp := V("rsp0")
	cases := []struct {
		e    *Expr
		want string
	}{
		{Sub(rsp, Word(0x28)), "rsp0 - 0x28"},
		{Add(rsp, Word(8)), "rsp0 + 0x8"},
		{Add(Mul(Word(8), V("i")), rsp, Word(0xffffffffffffffc0)), "0x8*i + rsp0 - 0x40"},
		{Deref(Sub(rsp, Word(8)), 8), "*[rsp0 - 0x8,8]"},
		{Neg(V("x")), "0xffffffffffffffff*x"},
		{UDiv(V("a"), Word(4)), "udiv(a, 0x4)"},
		{Mul(Word(3), Add(V("a"), Word(1))), "0x3*a + 0x3"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("pretty %s: got %q want %q", c.e.Key(), got, c.want)
		}
	}
}

func TestParseLocal(t *testing.T) {
	for _, k := range []string{
		"0x2a", "rsp0", "add(rdi0,0x8)", "*[rsp0,8]",
		"mul(0x8,j401064_rcx)", "sar(sext32(and(rax0,0xffffffff)),0x3f)",
	} {
		e, err := Parse(k)
		if err != nil {
			t.Fatalf("parse %q: %v", k, err)
		}
		if e.Key() != k {
			t.Fatalf("round trip %q → %q", k, e.Key())
		}
	}
	if _, err := Parse("nope("); err == nil {
		t.Fatal("unterminated call must fail")
	}
	if _, err := Parse("0xzz"); err == nil {
		t.Fatal("bad hex must fail")
	}
}

// Property: Parse inverts Key on randomly built expressions.
func TestQuickParseRoundTrip(t *testing.T) {
	f := func(a, b uint64, pick uint8) bool {
		var e *Expr
		switch pick % 5 {
		case 0:
			e = Add(V("x"), Word(a))
		case 1:
			e = Mul(Word(a|1), V("y"))
		case 2:
			e = Deref(Add(V("rsp0"), Word(b)), 8)
		case 3:
			e = And(V("z"), Word(a))
		default:
			e = SExt(V("w"), 4)
		}
		got, err := Parse(e.Key())
		return err == nil && got.Key() == e.Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
