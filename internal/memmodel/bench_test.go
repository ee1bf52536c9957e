package memmodel

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/solver"
)

// benchForest builds a memory model of the shape a function mid-loop
// carries: a stack frame of separate slots (one of them enclosing a 4-byte
// field) and an argument buffer whose top encloses a few fields.
func benchForest(extra int64) Forest {
	var f Forest
	for i := int64(1); i <= 6; i++ {
		f = append(f, Leaf(reg(rsp(-8*i), 8)))
	}
	f[0].Kids = Forest{Leaf(reg(rsp(-8), 4))}
	rdi := expr.V("rdi0")
	buf := &Tree{Regions: []solver.Region{reg(rdi, 32)}}
	for off := int64(0); off < 24; off += 8 {
		buf.Kids = append(buf.Kids, Leaf(reg(expr.Add(rdi, expr.Word(uint64(off))), 8)))
	}
	f = append(f, buf, Leaf(reg(rsp(-64-8*extra), 8)))
	return f
}

// BenchmarkMemmodelJoin measures the memory-model join of Step 1 on two
// models that share most regions and differ in one stack slot — the shape
// of the fixed-point iteration at a revisited vertex.
func BenchmarkMemmodelJoin(b *testing.B) {
	m0, m1 := benchForest(0), benchForest(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(Join(m0, m1)) == 0 {
			b.Fatal("join must keep the shared regions")
		}
	}
}
