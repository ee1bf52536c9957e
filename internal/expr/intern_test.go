package expr

import (
	"fmt"
	"sync"
	"testing"
)

// TestInternPointerIdentity checks the core hash-consing invariant on a few
// hand-built terms: constructing the same term twice yields the same pointer.
func TestInternPointerIdentity(t *testing.T) {
	mk := func() *Expr {
		return Deref(Add(V("rsp0"), Word(^uint64(0x27))), 8)
	}
	a, b := mk(), mk()
	if a != b {
		t.Fatalf("structurally equal terms interned to distinct pointers:\n%s\n%s", a, b)
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same pointer, different fingerprint")
	}
	if !a.Equal(b) {
		t.Fatal("Equal false on identical pointer")
	}
	if Word(7) != Word(7) || V("x") != V("x") {
		t.Fatal("leaf constructors not interned")
	}
	if Word(7) == Word(8) || V("x") == V("y") {
		t.Fatal("distinct leaves share a node")
	}
}

// TestInternDistinctTerms checks that near-miss terms (differing in one
// scalar field) get distinct nodes even if fingerprints were to collide.
func TestInternDistinctTerms(t *testing.T) {
	a := Deref(V("p"), 8)
	b := Deref(V("p"), 4)
	if a == b {
		t.Fatal("derefs of different sizes share a node")
	}
	c := newOp(OpShl, V("x"), V("y"))
	d := newOp(OpShr, V("x"), V("y"))
	if c == d {
		t.Fatal("different operators share a node")
	}
}

// TestInternConcurrent hammers the table from many goroutines building the
// same working set, then checks canonicality. Run under -race this also
// exercises the shard locking and the atomic Key/String caches.
func TestInternConcurrent(t *testing.T) {
	const workers = 8
	results := make([][]*Expr, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var out []*Expr
			base := V("rsp0")
			for i := 0; i < 200; i++ {
				e := Deref(Add(base, Word(uint64(i*8))), 8)
				out = append(out, e, Add(e, Word(1)))
				_ = e.Key()
				_ = e.String()
			}
			results[w] = out
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if len(results[w]) != len(results[0]) {
			t.Fatal("worker result length mismatch")
		}
		for i := range results[w] {
			if results[w][i] != results[0][i] {
				t.Fatalf("worker %d term %d not canonical", w, i)
			}
		}
	}
}

// TestTableStats checks the hit/miss accounting on a term the test owns.
func TestTableStats(t *testing.T) {
	before := TableStats()
	fresh := fmt.Sprintf("stats_probe_%d", before.Misses)
	V(Var(fresh)) // miss: new node
	V(Var(fresh)) // hit: same node
	after := TableStats()
	if after.Misses < before.Misses+1 {
		t.Fatalf("miss not counted: before %+v after %+v", before, after)
	}
	if after.Hits < before.Hits+1 {
		t.Fatalf("hit not counted: before %+v after %+v", before, after)
	}
	if after.Entries != after.Misses {
		t.Fatalf("entries %d != misses %d in append-only table", after.Entries, after.Misses)
	}
}

// genExpr is the term generator of FuzzInternCanonical: eight
// constructor-built shapes over one symbolic base, selected by sel.
func genExpr(w uint64, sel uint8, name string) *Expr {
	base := V(Var(name))
	switch sel % 8 {
	case 0:
		return Word(w)
	case 1:
		return base
	case 2:
		return Add(base, Word(w))
	case 3:
		return Deref(Add(base, Word(w)), 8)
	case 4:
		return Mul(Word(w|2), base)
	case 5:
		return And(base, Word(w))
	case 6:
		return SExt(Xor(base, Word(w)), 4)
	default:
		return Deref(Sub(base, Word(w%512)), 4)
	}
}

// FuzzInternCanonical is the canonicality oracle: for
// constructor-built pairs, structural equality (the pre-interning
// definition), pointer identity and fingerprint equality must all coincide,
// and the canonical renderings must agree with structural equality.
func FuzzInternCanonical(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(0), uint8(1), "rsp0", "rdi0")
	f.Add(uint64(0x28), uint64(0x28), uint8(3), uint8(3), "v17", "v17")
	f.Add(^uint64(0), uint64(1<<40), uint8(7), uint8(2), "a", "b")
	f.Fuzz(func(t *testing.T, w1, w2 uint64, sel1, sel2 uint8, n1, n2 string) {
		a := genExpr(w1, sel1, n1)
		b := genExpr(w2, sel2, n2)
		structural := structuralEq(a, b)
		if (a == b) != structural {
			t.Fatalf("pointer identity %v != structural equality %v\na=%s\nb=%s",
				a == b, structural, a, b)
		}
		if structural && a.Fingerprint() != b.Fingerprint() {
			t.Fatalf("equal terms, different fingerprints: %s", a)
		}
		if (a.Key() == b.Key()) != structural {
			t.Fatalf("Key agreement %v != structural equality %v\na=%s\nb=%s",
				a.Key() == b.Key(), structural, a.Key(), b.Key())
		}
		if structural && a.String() != b.String() {
			t.Fatalf("equal terms render differently: %q vs %q", a.String(), b.String())
		}
		if a.Equal(b) != structural {
			t.Fatal("Equal disagrees with structural equality")
		}
	})
}
