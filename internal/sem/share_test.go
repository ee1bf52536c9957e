package sem

import (
	"testing"

	"repro/internal/expr"
	"repro/internal/pred"
	"repro/internal/x86"
)

// TestStepNeverMutatesInput runs every outcome of a corpus of small
// programs — branch and cmov forks, aliasing stores and loads, jump-table
// enumeration, unknown stack writes, block writes, calls — and checks that
// no Step or CleanAfterCall changes its input state, neither at once nor
// later, while the states forked off it are stepped further. Forked states
// share their clause tables and memory trees with their ancestors, so a
// write that reached a shared table would show here.
func TestStepNeverMutatesInput(t *testing.T) {
	table := make([]byte, 16)
	for i, v := range []uint32{0x401100, 0x401200, 0x401100, 0x401300} {
		table[4*i], table[4*i+1], table[4*i+2] = byte(v), byte(v>>8), byte(v>>16)
	}
	programs := []struct {
		name   string
		build  func(a *x86.Asm)
		rodata []byte
		setup  func(st *State)
	}{
		{name: "jcc", build: func(a *x86.Asm) {
			a.I(x86.CMP, x86.RegOp(x86.RAX, 4), x86.ImmOp(0xc3, 4))
			a.Jcc(x86.CondA, "high")
			a.I(x86.MOV, x86.MemOp(x86.RSP, x86.RegNone, 1, -8, 8), x86.RegOp(x86.RAX, 8))
			a.Label("high")
			a.I(x86.RET)
		}},
		{name: "cmov", build: func(a *x86.Asm) {
			a.I(x86.CMP, x86.RegOp(x86.RDI, 8), x86.ImmOp(5, 1))
			a.Icc(x86.CMOVCC, x86.CondE, x86.RegOp(x86.RAX, 8), x86.RegOp(x86.RSI, 8))
			a.Icc(x86.SETCC, x86.CondB, x86.RegOp(x86.RCX, 1))
			a.I(x86.RET)
		}},
		{name: "alias", build: func(a *x86.Asm) {
			a.I(x86.MOV, x86.MemOp(x86.RDI, x86.RegNone, 1, 0, 8), x86.RegOp(x86.RAX, 8))
			a.I(x86.MOV, x86.MemOp(x86.RSI, x86.RegNone, 1, 0, 8), x86.ImmOp(1, 4))
			a.I(x86.MOV, x86.MemOp(x86.RSI, x86.RegNone, 1, 4, 4), x86.ImmOp(2, 4))
			a.I(x86.MOV, x86.RegOp(x86.RCX, 8), x86.MemOp(x86.RDI, x86.RegNone, 1, 0, 8))
			a.I(x86.XCHG, x86.MemOp(x86.RDX, x86.RegNone, 1, 0, 8), x86.RegOp(x86.RCX, 8))
			a.I(x86.RET)
		}},
		{name: "table", build: func(a *x86.Asm) {
			a.I(x86.MOV, x86.RegOp(x86.RAX, 4), x86.MemOp(x86.RegNone, x86.RAX, 4, rodataBase, 4))
			a.I(x86.JMP, x86.RegOp(x86.RAX, 8))
		}, rodata: table, setup: func(st *State) {
			st.Pred.SetReg(x86.RAX, expr.V("i"))
			st.Pred.AddRange(expr.V("i"), pred.Range{Lo: 0, Hi: 3})
		}},
		{name: "stack", build: func(a *x86.Asm) {
			a.I(x86.PUSH, x86.RegOp(x86.RBP, 8))
			a.I(x86.MOV, x86.MemOp(x86.RSP, x86.RegNone, 1, -0x20, 8), x86.ImmOp(7, 4))
			a.I(x86.MOV, x86.MemOp(x86.RSP, x86.RAX, 1, 0, 8), x86.ImmOp(0, 4))
			a.I(x86.LEA, x86.RegOp(x86.RDI, 8), x86.MemOp(x86.RSP, x86.RegNone, 1, -0x40, 8))
			a.Raw(0xf3, 0x48, 0xab) // rep stosq with an unknown count
			a.I(x86.POP, x86.RegOp(x86.RBP, 8))
			a.I(x86.RET)
		}},
		{name: "call", build: func(a *x86.Asm) {
			a.I(x86.MOV, x86.MemOp(x86.RSP, x86.RegNone, 1, -16, 8), x86.ImmOp(3, 4))
			a.I(x86.MOV, x86.MemOp(x86.RDI, x86.RegNone, 1, 0, 8), x86.ImmOp(4, 4))
			a.I(x86.CALL, x86.RegOp(x86.RAX, 8))
			a.I(x86.SYSCALL)
			a.I(x86.RET)
		}},
	}

	type seen struct {
		st  *State
		key string
	}
	for _, p := range programs {
		m := newMachine(t, p.build, p.rodata)
		st := InitialState("a_r")
		if p.setup != nil {
			p.setup(st)
		}
		var inputs []seen
		type item struct {
			st   *State
			addr uint64
		}
		work := []item{{st, textBase}}
		for steps := 0; len(work) > 0 && steps < 200; steps++ {
			it := work[len(work)-1]
			work = work[:len(work)-1]
			inst, err := m.Img.Fetch(it.addr)
			if err != nil {
				continue // left the program (a resolved table target)
			}
			key := it.st.Key()
			inputs = append(inputs, seen{it.st, key})
			outs, err := m.Step(it.st, inst)
			if err != nil {
				t.Fatalf("%s: step %s: %v", p.name, inst.String(), err)
			}
			if it.st.Key() != key {
				t.Fatalf("%s: Step(%s) mutated its input:\n%s\nwas\n%s", p.name, inst.String(), it.st.Key(), key)
			}
			for _, o := range outs {
				switch o.Kind {
				case KFall, KJump:
					if tgt, ok := o.Resolved(); ok {
						work = append(work, item{o.State, tgt})
					}
				case KCall:
					ck := o.State.Key()
					inputs = append(inputs, seen{o.State, ck})
					work = append(work, item{m.CleanAfterCall(o.State, inst.Addr), inst.Next()})
					if o.State.Key() != ck {
						t.Fatalf("%s: CleanAfterCall mutated its input", p.name)
					}
				}
			}
		}
		if len(inputs) < 4 {
			t.Fatalf("%s: only %d states explored", p.name, len(inputs))
		}
		t.Logf("%s: %d input states", p.name, len(inputs))
		for _, s := range inputs {
			if s.st.Key() != s.key {
				t.Fatalf("%s: a state changed after its successors were stepped:\n%s\nwas\n%s", p.name, s.st.Key(), s.key)
			}
		}
	}
}
