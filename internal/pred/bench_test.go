package pred

import (
	"fmt"
	"testing"

	"repro/internal/expr"
	"repro/internal/x86"
)

// benchPred builds a predicate of the shape the lifter produces mid-loop:
// register clauses, a handful of memory clauses, and interval clauses on
// join variables.
func benchPred(tag string) *Pred {
	p := New()
	rsp := expr.V("rsp0")
	p.SetReg(x86.RSP, expr.Sub(rsp, expr.Word(0x40)))
	p.SetReg(x86.RBP, expr.Sub(rsp, expr.Word(8)))
	p.SetReg(x86.RDI, expr.V("rdi0"))
	p.SetReg(x86.RAX, expr.V(expr.Var("jv_"+tag)))
	for i := 0; i < 6; i++ {
		addr := expr.Add(rsp, expr.Word(uint64(^uint64(0)-uint64(8*i)+1)))
		p.WriteMem(addr, 8, expr.V(expr.Var(fmt.Sprintf("m%d_%s", i, tag))))
	}
	for i := 0; i < 8; i++ {
		p.AddRange(expr.V(expr.Var(fmt.Sprintf("j%d_%s", i, tag))), Range{Lo: 0, Hi: uint64(16 << i)})
	}
	return p
}

// BenchmarkRangesKey measures deriving the solver-memo fingerprint of the
// interval clause set after a mutation (AddRange invalidates the cache, as
// every branch refinement does).
func BenchmarkRangesKey(b *testing.B) {
	p := benchPred("a")
	idx := expr.V("idx")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.AddRange(idx, Range{Lo: 0, Hi: 0xff})
		_ = p.RangesKey()
	}
}

// BenchmarkJoin measures the predicate join of Definition 3.3 on two
// predicates that share most clauses — the fixed-point iteration shape.
func BenchmarkJoin(b *testing.B) {
	p := benchPred("a")
	q := benchPred("a")
	q.SetReg(x86.RCX, expr.Word(0x10))
	p.SetReg(x86.RCX, expr.Word(0x20))
	vars := NewJoinVars()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Join(p, q, "v1", vars)
		if out.IsBot() {
			b.Fatal("join must not be bottom")
		}
	}
}

// BenchmarkRangeOf measures the miss path of RangeOf: the query's atoms
// carry no intervals of their own, so the term-wise interval arithmetic
// fails and the composite match scans every stored clause for a multiple.
func BenchmarkRangeOf(b *testing.B) {
	p := benchPred("a")
	x, y := expr.V("x"), expr.V("y")
	p.AddRange(expr.Add(x, y), Range{Lo: 0, Hi: 0x100})
	e := expr.Add(expr.Mul(expr.Word(8), expr.Add(x, y)), expr.Word(0x40))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := p.RangeOf(e); !ok {
			b.Fatal("composite clause must bound the query")
		}
	}
}

// BenchmarkLeq measures the fixed-point test itself (join + comparison with
// the stored state).
func BenchmarkLeq(b *testing.B) {
	p := benchPred("a")
	q := Join(p, benchPred("a"), "v1", NewJoinVars())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !Leq(p, q, "v1") {
			b.Fatal("p must be below its own join")
		}
	}
}
