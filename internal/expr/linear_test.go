package expr

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// builderTerms returns what the mutable builder accumulated as key-sorted
// atoms, their coefficients and the constant: the reference the frozen
// form must reproduce.
func builderTerms(b *linBuilder) ([]*Expr, []uint64, uint64) {
	atoms := make([]*Expr, 0, len(b.terms))
	for e := range b.terms {
		atoms = append(atoms, e)
	}
	sort.Slice(atoms, func(i, j int) bool { return atoms[i].Key() < atoms[j].Key() })
	coeffs := make([]uint64, len(atoms))
	for i, e := range atoms {
		coeffs[i] = b.terms[e]
	}
	return atoms, coeffs, b.k
}

// sameForm reports where the frozen form l departs from the reference.
func sameForm(l Linear, atoms []*Expr, coeffs []uint64, k uint64) error {
	if l.K != k {
		return fmt.Errorf("K = %#x, builder %#x", l.K, k)
	}
	if l.NumTerms() != len(atoms) {
		return fmt.Errorf("%d terms, builder %d", l.NumTerms(), len(atoms))
	}
	i := 0
	var err error
	l.Terms(func(atom *Expr, c uint64) {
		if err == nil && (atom != atoms[i] || c != coeffs[i]) {
			err = fmt.Errorf("term %d = %#x·%s, builder %#x·%s", i, c, atom, coeffs[i], atoms[i])
		}
		if ta, tc := l.Term(i); err == nil && (ta != atom || tc != c) {
			err = fmt.Errorf("Term(%d) disagrees with Terms", i)
		}
		i++
	})
	return err
}

// TestFrozenLinearMatchesBuilder checks the cached frozen form against the
// mutable builder over the FuzzInternCanonical generator and sums of its
// terms: the same terms in the same key order with the same coefficients,
// the same difference under Sub, and the same re-emitted expression.
func TestFrozenLinearMatchesBuilder(t *testing.T) {
	words := []uint64{0, 1, 8, 0x28, 1 << 40, ^uint64(0), ^uint64(7)}
	names := []string{"rsp0", "rdi0", "a"}
	var gen []*Expr
	for sel := uint8(0); sel < 8; sel++ {
		for _, w := range words {
			for _, n := range names {
				gen = append(gen, genExpr(w, sel, n))
			}
		}
	}
	checked := 0
	for i, a := range gen {
		// Every term on its own, plus a deterministic sample of pairs
		// combined into two-, three- and cancelling sums.
		for j := i % 7; j < len(gen); j += 37 {
			b := gen[j]
			for _, x := range []*Expr{a, Add(a, b), Sub(a, b), Mul(Word(3), Add(a, b, V("z")))} {
				var bl linBuilder
				bl.addExpr(x, 1)
				atoms, coeffs, k := builderTerms(&bl)
				if err := sameForm(ToLinear(x), atoms, coeffs, k); err != nil {
					t.Fatalf("ToLinear(%s): %v", x, err)
				}
				if got, want := ToLinear(x).Expr(), bl.Expr(); got != want {
					t.Fatalf("Expr of %s: frozen %s, builder %s", x, got, want)
				}
			}
			var bl linBuilder
			bl.addExpr(a, 1)
			bl.addExpr(b, ^uint64(0))
			atoms, coeffs, k := builderTerms(&bl)
			d := ToLinear(a).Sub(ToLinear(b))
			if err := sameForm(d, atoms, coeffs, k); err != nil {
				t.Fatalf("ToLinear(%s).Sub(ToLinear(%s)): %v", a, b, err)
			}
			if got, want := d.Expr(), Sub(a, b); got != want {
				t.Fatalf("Sub(%s, %s): frozen %s, builder %s", a, b, got, want)
			}
			checked++
		}
	}
	if checked < 200 {
		t.Fatalf("only %d pairs checked", checked)
	}
}

var concurrentRuns atomic.Int64

// TestToLinearConcurrent builds the cached forms of shared nodes from many
// goroutines at once. Run under -race (and -count=10 to vary the
// interleaving), it exercises the compare-and-swap publication; every
// goroutine must see the same form.
func TestToLinearConcurrent(t *testing.T) {
	const workers = 8
	// Fresh nodes per run, so the first ToLinear on each races to build.
	tag := fmt.Sprint(concurrentRuns.Add(1))
	shared := make([]*Expr, 64)
	for i := range shared {
		base := V(Var("conc" + tag + fmt.Sprint(i%5)))
		shared[i] = Add(Mul(Word(uint64(i+2)), base), V(Var("idx"+tag)), Word(uint64(i)))
	}
	got := make([][]Linear, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			out := make([]Linear, len(shared))
			for i := range shared {
				// Alternate directions so workers meet on every node.
				k := i
				if w%2 == 1 {
					k = len(shared) - 1 - i
				}
				out[k] = ToLinear(shared[k])
			}
			got[w] = out
		}(w)
	}
	close(start)
	wg.Wait()
	for i, e := range shared {
		var bl linBuilder
		bl.addExpr(e, 1)
		atoms, coeffs, k := builderTerms(&bl)
		for w := 0; w < workers; w++ {
			if err := sameForm(got[w][i], atoms, coeffs, k); err != nil {
				t.Fatalf("worker %d, %s: %v", w, e, err)
			}
		}
	}
}

// BenchmarkToLinear measures the linear form of address-shaped sums whose
// forms are already cached — what every solver query and RangeOf pays —
// and the merge in Sub that derives their pairwise differences.
func BenchmarkToLinear(b *testing.B) {
	rsp, idx := V("rsp0"), V("idx")
	addrs := make([]*Expr, 16)
	for i := range addrs {
		addrs[i] = Add(rsp, Mul(Word(8), idx), Word(uint64(0x10*i)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := addrs[i%len(addrs)], addrs[(i+5)%len(addrs)]
		if _, ok := ToLinear(a).Sub(ToLinear(c)).Const(); !ok {
			b.Fatal("same-base difference must be constant")
		}
	}
}
