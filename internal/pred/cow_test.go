package pred

import (
	"sync"
	"testing"

	"repro/internal/expr"
	"repro/internal/x86"
)

// cowBase returns a predicate with clauses in every table.
func cowBase() *Pred {
	p := New()
	p.SetReg(x86.RAX, expr.V("rax0"))
	p.WriteMem(expr.V("rsp0"), 8, expr.V("ret"))
	p.WriteMem(expr.Add(expr.V("rsp0"), expr.Word(^uint64(7))), 8, expr.Word(7))
	p.AddRange(expr.V("i"), Range{0, 9})
	return p
}

// cowMutators are the predicate's mutators, each applied in a way that
// changes its Key.
var cowMutators = map[string]func(p *Pred){
	"WriteMem":  func(p *Pred) { p.WriteMem(expr.V("rdi0"), 4, expr.Word(1)) },
	"WriteMem=": func(p *Pred) { p.WriteMem(expr.V("rsp0"), 8, expr.Word(2)) },
	"DropMem":   func(p *Pred) { p.DropMem(expr.V("rsp0"), 8) },
	"FilterMem": func(p *Pred) { p.FilterMem(func(e MemEntry) bool { return e.Val.Kind() != expr.KindWord }) },
	"AddRange":  func(p *Pred) { p.AddRange(expr.V("n"), Range{1, 4}) },
	"AddRange∩": func(p *Pred) { p.AddRange(expr.V("i"), Range{2, 5}) },
	"SetReg":    func(p *Pred) { p.SetReg(x86.RAX, expr.Word(3)) },
	"SetCmp":    func(p *Pred) { p.SetCmp(&Cmp{Kind: CmpSub, Lhs: expr.V("rax0"), Rhs: expr.Word(1), Size: 8}) },
}

// TestCloneCopyOnWrite pins the isolation of copy-on-write clones: after
// Clone, mutating the clone and then the source, through every mutator,
// leaves the other side's Key unchanged.
func TestCloneCopyOnWrite(t *testing.T) {
	for name, mutate := range cowMutators {
		p := cowBase()
		q := p.Clone()
		pk := p.Key()
		mutate(q)
		if q.Key() == pk {
			t.Fatalf("%s: mutator did not change the clone", name)
		}
		if p.Key() != pk {
			t.Fatalf("%s on the clone changed the source:\n%s\nwas\n%s", name, p.Key(), pk)
		}
		qk := q.Key()
		r := p.Clone()
		mutate(p)
		if q.Key() != qk {
			t.Fatalf("%s on the source changed an earlier clone", name)
		}
		if r.Key() != pk {
			t.Fatalf("%s on the source changed its clone:\n%s\nwas\n%s", name, r.Key(), pk)
		}
	}
}

// TestFilterMemKeepsSharing pins that a filter which drops nothing does not
// copy a shared table, and Same short-cuts on shared tables.
func TestFilterMemKeepsSharing(t *testing.T) {
	p := cowBase()
	q := p.Clone()
	q.FilterMem(func(MemEntry) bool { return true })
	if q.mem != p.mem {
		t.Fatal("a filter that drops nothing copied the shared table")
	}
	if !q.Same(p) {
		t.Fatal("clone is not Same as its source")
	}
}

// TestConcurrentClone clones one predicate from several goroutines at once
// and mutates every clone, as Step-2 workers do with a vertex state; run it
// under -race.
func TestConcurrentClone(t *testing.T) {
	p := cowBase()
	want := p.Key()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := p.Clone()
				q.WriteMem(expr.V("rdi0"), 8, expr.Word(uint64(g)))
				q.AddRange(expr.V("i"), Range{1, 8})
				q.DropMem(expr.V("rsp0"), 8)
				if _, ok := p.RangeOf(expr.V("i")); !ok {
					t.Error("source lost its interval clause")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if p.Key() != want {
		t.Fatalf("concurrent clones changed the source:\n%s\nwas\n%s", p.Key(), want)
	}
}
