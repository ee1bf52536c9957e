package memmodel

import (
	"math/rand"
	"testing"

	"repro/internal/expr"
	"repro/internal/solver"
)

// genForest builds a random model the way exploration does: a sequence of
// insertions of stack, argument-pointer and global regions, following one
// randomly chosen model at every fork. Pointer bases are undecided against
// each other, so the models carry aliasing nodes, enclosure and one-sided
// trees, not only separate stack slots.
func genForest(rng *rand.Rand) Forest {
	bases := []*expr.Expr{nil, expr.V("rdi0"), expr.V("rsi0"), expr.Word(0x4c0000)} // nil: stack
	o, cfg := topOracle(), DefaultConfig()
	var f Forest
	for i, n := 0, 1+rng.Intn(6); i < n; i++ {
		addr := rsp(-8 * int64(1+rng.Intn(4)))
		if k := rng.Intn(len(bases)); k > 0 {
			addr = expr.Add(bases[k], expr.Word(uint64(8*rng.Intn(4))))
		}
		res := Ins(reg(addr, uint64(4)<<uint(rng.Intn(2))), f, o, cfg)
		f = res[rng.Intn(len(res))].Forest
	}
	return f
}

// mapJoin is the map-based Join this package used before its output order
// was made deterministic, kept as the reference the linear-scan Join must
// agree with up to Key.
func mapJoin(m0, m1 Forest) Forest {
	trees := append(append([]*Tree{}, m0...), m1...)
	if len(trees) == 0 {
		return nil
	}
	parent := make([]int, len(trees))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	byRegion := map[RegionID]int{}
	for i, t := range trees {
		for _, r := range t.Regions {
			if j, ok := byRegion[IDOf(r)]; ok {
				parent[find(i)] = find(j)
			} else {
				byRegion[IDOf(r)] = i
			}
		}
	}
	classes := map[int][]*Tree{}
	fromBoth := map[int][2]bool{}
	for i, t := range trees {
		root := find(i)
		classes[root] = append(classes[root], t)
		sides := fromBoth[root]
		if i < len(m0) {
			sides[0] = true
		} else {
			sides[1] = true
		}
		fromBoth[root] = sides
	}
	var out Forest
	var oneSided []*Tree
	for root, class := range classes {
		if sides := fromBoth[root]; !sides[0] || !sides[1] {
			if t := mapJoinClass(class); t != nil && treeNecessary(t) {
				oneSided = append(oneSided, t)
			}
			continue
		}
		if t := mapJoinClass(class); t != nil {
			out = append(out, t)
		}
	}
	for _, t := range oneSided {
		ok := true
		for _, u := range append(append(Forest{}, out...), oneSided...) {
			if u != t && !necessarilySeparate(t, u) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, t)
		}
	}
	return out
}

func mapJoinClass(class []*Tree) *Tree {
	counts := map[RegionID]int{}
	repr := map[RegionID]solver.Region{}
	for _, t := range class {
		seen := map[RegionID]bool{}
		for _, r := range t.Regions {
			if id := IDOf(r); !seen[id] {
				seen[id] = true
				counts[id]++
				repr[id] = r
			}
		}
	}
	var node []solver.Region
	for id, c := range counts {
		if c == len(class) {
			node = append(node, repr[id])
		}
	}
	if len(node) == 0 {
		return nil
	}
	kids := copyForest(class[0].Kids)
	for _, t := range class[1:] {
		kids = mapJoin(kids, t.Kids)
	}
	return &Tree{Regions: node, Kids: kids}
}

// TestJoinSelfIsSame pins M ⊔ M = M, both for one forest joined with
// itself (the identical-operand fast path) and with a structural copy.
func TestJoinSelfIsSame(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 300; trial++ {
		f := genForest(rng)
		if j := Join(f, f); !j.Same(f) {
			t.Fatalf("Join(f, f) = %v, want %v", j, f)
		}
		if j := Join(f, copyForest(f)); !j.Same(f) {
			t.Fatalf("Join(f, copy) = %v, want %v", j, f)
		}
	}
}

// TestJoinMatchesMapJoin checks the linear-scan Join against the map-based
// reference on generated pairs, and that it is deterministic: repeated
// calls give the same trees in the same order, and neither operand moves.
func TestJoinMatchesMapJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(1512))
	for trial := 0; trial < 500; trial++ {
		m0, m1 := genForest(rng), genForest(rng)
		c0, c1 := copyForest(m0), copyForest(m1)
		j := Join(m0, m1)
		if want := mapJoin(m0, m1); j.Key() != want.Key() {
			t.Fatalf("trial %d: Join = %v, map-based join = %v\n m0=%v\n m1=%v", trial, j, want, m0, m1)
		}
		for rep := 0; rep < 3; rep++ {
			if again := Join(m0, m1); !sameOrdered(again, j) {
				t.Fatalf("trial %d: Join order differs between calls: %v vs %v", trial, again, j)
			}
		}
		if !sameOrdered(m0, c0) || !sameOrdered(m1, c1) {
			t.Fatalf("trial %d: Join modified an operand", trial)
		}
	}
}

// withSlack rebuilds f with spare capacity in every Kids slice, the way a
// decoder's appends leave it, so an insertion that appended into a shared
// backing array instead of copying would write through.
func withSlack(f Forest) Forest {
	out := make(Forest, len(f), len(f)+4)
	for i, t := range f {
		out[i] = &Tree{Regions: t.Regions, Kids: withSlack(t.Kids)}
	}
	return out
}

// TestInsLeavesInputUnchanged pins the sharing contract of insertion: the
// produced models reuse the input's subtrees, so neither the input nor any
// model produced earlier may change when more regions are inserted into
// them, down to the order of every node's regions.
func TestInsLeavesInputUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	o, cfg := topOracle(), DefaultConfig()
	type snap struct{ f, was Forest }
	// Regions that alias, enclose or sit inside the generated ones.
	inserts := []solver.Region{
		reg(rsp(-8), 8), reg(rsp(-8), 4), reg(rsp(-16), 4), reg(rsp(-32), 32),
		reg(expr.V("rdi0"), 8), reg(expr.Add(expr.V("rdi0"), expr.Word(8)), 4),
		reg(expr.V("rsi0"), 4), reg(expr.V("rsi0"), 32), reg(expr.Word(0x4c0008), 4),
	}
	for trial := 0; trial < 300; trial++ {
		f := withSlack(genForest(rng))
		snaps := []snap{{f, copyForest(f)}}
		for _, r := range inserts {
			for _, res := range Ins(r, f, o, cfg) {
				snaps = append(snaps, snap{res.Forest, copyForest(res.Forest)})
				for _, more := range Ins(reg(expr.V("rdx0"), 8), res.Forest, o, cfg) {
					Ins(reg(expr.V("rdi0"), 16), more.Forest, o, cfg)
				}
			}
		}
		for _, s := range snaps {
			if !sameOrdered(s.f, s.was) {
				t.Fatalf("trial %d: a model changed under later insertions: %v, was %v", trial, s.f, s.was)
			}
		}
	}
}

// TestInsEnclosedWithoutCleanSubModel inserts a region that lies inside a
// tree but may only partially overlap that tree's child (a model reached
// through an undecided alias fork). Insertion used to index an empty
// sub-model list and panic; the overlapping child is destroyed instead.
func TestInsEnclosedWithoutCleanSubModel(t *testing.T) {
	rdi := func(off uint64) *expr.Expr { return expr.Add(expr.V("rdi0"), expr.Word(off)) }
	node := &Tree{
		Regions: []solver.Region{reg(rdi(16), 8), reg(rdi(8), 8), reg(rsp(-16), 8)},
		Kids:    Forest{Leaf(reg(rdi(8), 4))},
	}
	f := Forest{{Regions: []solver.Region{reg(rsp(-32), 32)}, Kids: Forest{node}}}
	res := Ins(reg(expr.V("rdi0"), 16), f, topOracle(), DefaultConfig())
	if len(res) == 0 {
		t.Fatal("no model produced")
	}
	for _, r := range res {
		if !r.Forest.HasRegion(reg(expr.V("rdi0"), 16)) {
			t.Fatalf("inserted region missing from %v", r.Forest)
		}
	}
}
