package core

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/expr"
	"repro/internal/hoare"
	"repro/internal/pred"
	"repro/internal/sem"
	"repro/internal/x86"
)

// fmtVertexID is the reference rendering of a vertex ID, built the
// straightforward way with fmt: "%x" of the address, then "/part" for each
// code-pointer part in sorted order, registers as "reg=%x" and memory
// clauses as "m<addr key>=%x".
func fmtVertexID(l *Lifter, rip uint64, st *sem.State) hoare.VertexID {
	id := fmt.Sprintf("%x", rip)
	if l.Cfg.JoinCodePointers {
		return hoare.VertexID(id)
	}
	lo, hi := l.Img.TextRange()
	inText := func(e *expr.Expr) (uint64, bool) {
		if e == nil {
			return 0, false
		}
		w, ok := e.AsWord()
		return w, ok && w >= lo && w < hi
	}
	var parts []string
	for r := x86.Reg(0); r < 17; r++ {
		if w, ok := inText(st.Pred.Reg(r)); ok {
			parts = append(parts, fmt.Sprintf("%s=%x", r, w))
		}
	}
	st.Pred.MemEntries(func(m pred.MemEntry) {
		if w, ok := inText(m.Val); ok {
			parts = append(parts, fmt.Sprintf("m%s=%x", m.Addr.Key(), w))
		}
	})
	sort.Strings(parts)
	for _, p := range parts {
		id += "/" + p
	}
	return hoare.VertexID(id)
}

// TestVertexIDFormat checks the buffer-built vertex IDs byte for byte
// against the fmt rendering, with register and memory code-pointer parts
// and with the compatibility extension on and off.
func TestVertexIDFormat(t *testing.T) {
	b := newBuilder(t)
	a := b.Func("f")
	for i := 0; i < 8; i++ {
		a.I(x86.NOP)
	}
	a.I(x86.RET)
	im := b.Image()
	lo, _ := im.TextRange()
	rsp := expr.V("rsp0")

	cases := []struct {
		name  string
		rip   uint64
		build func(st *sem.State)
	}{
		{"no parts", textBase, func(*sem.State) {}},
		{"high address", 0xffffffff_fffffff0, func(*sem.State) {}},
		{"register part", textBase + 3, func(st *sem.State) {
			st.Pred.SetReg(x86.RAX, expr.Word(lo+2))
		}},
		{"registers sort by name", textBase + 4, func(st *sem.State) {
			st.Pred.SetReg(x86.RSI, expr.Word(lo))
			st.Pred.SetReg(x86.RAX, expr.Word(lo+5))
			st.Pred.SetReg(x86.R15, expr.Word(lo+1))
		}},
		{"word outside text", textBase, func(st *sem.State) {
			st.Pred.SetReg(x86.RCX, expr.Word(0x10))
			st.Pred.WriteMem(rsp, 8, expr.Word(0x99))
		}},
		{"memory parts", textBase + 7, func(st *sem.State) {
			st.Pred.WriteMem(expr.Sub(rsp, expr.Word(8)), 8, expr.Word(lo+6))
			st.Pred.WriteMem(expr.Add(expr.V("rdi0"), expr.Word(0x10)), 4, expr.Word(lo))
			st.Pred.WriteMem(expr.Word(0x601000), 8, expr.Word(lo+1))
		}},
		{"registers and memory", textBase + 1, func(st *sem.State) {
			st.Pred.SetReg(x86.RDX, expr.Word(lo+3))
			st.Pred.WriteMem(rsp, 8, expr.Word(lo+4))
		}},
	}
	for _, joinCP := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.JoinCodePointers = joinCP
		l := New(im, cfg)
		for _, c := range cases {
			st := sem.InitialState(RetSymFor(textBase))
			c.build(st)
			got, want := l.vertexID(c.rip, st), fmtVertexID(l, c.rip, st)
			if got != want {
				t.Errorf("%s (JoinCodePointers=%v): vertexID %q, fmt rendering %q", c.name, joinCP, got, want)
			}
		}
	}
	// The table above must reach the part-rendering paths at all.
	st := sem.InitialState(RetSymFor(textBase))
	cases[len(cases)-1].build(st)
	if id := New(im, DefaultConfig()).vertexID(textBase, st); id != hoare.VertexID(fmt.Sprintf("%x/m%s=%x/rdx=%x", textBase, rsp.Key(), lo+4, lo+3)) {
		t.Fatalf("unexpected ID %q", id)
	}
}
