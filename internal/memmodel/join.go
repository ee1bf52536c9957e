package memmodel

import (
	"slices"

	"repro/internal/pred"
	"repro/internal/solver"
)

// Join computes M0 ⊔ M1 per Definition 3.12. Memory trees from both models
// are partitioned into equivalence classes by the transitive closure of
// "shares a top-level region"; each class joins into one tree whose node is
// the intersection of the class's region sets and whose children are the
// join of the class's child models. Classes with an empty intersection are
// dropped, and — the sound reading of the definition that Lemma 3.14's
// proof relies on — so are classes represented in only one of the two
// operands: a relation survives the join only if both disjuncts established
// it.
//
// Neither operand is modified; the result shares their subtrees. Its order
// is deterministic: classes appear in the order of their first tree (m0's
// trees first), and a node keeps the region order of its class's first
// tree. Forests hold a handful of regions, so classes are found by linear
// scans rather than maps.
func Join(m0, m1 Forest) Forest {
	if sameOrdered(m0, m1) {
		return m1 // M ⊔ M = M
	}
	trees := append(append(make([]*Tree, 0, len(m0)+len(m1)), m0...), m1...)

	// Union-find over trees keyed by shared top-level regions; each
	// region is owned by the first tree that holds it.
	parent := make([]int, len(trees))
	for i := range parent {
		parent[i] = i
	}
	find := func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	type owner struct {
		r    solver.Region // regions compare by identity
		tree int
	}
	var owners []owner
	for i, t := range trees {
		for _, r := range t.Regions {
			j := slices.IndexFunc(owners, func(o owner) bool { return o.r == r })
			if j < 0 {
				owners = append(owners, owner{r, i})
			} else {
				parent[find(i)] = find(owners[j].tree)
			}
		}
	}

	// Classes in the order of their first tree, members in tree order.
	type class struct {
		trees    []*Tree
		in0, in1 bool // backed by m0, by m1
	}
	var classes []class
	classOf := make([]int, len(trees)) // root → 1 + class index; 0 = none yet
	for i, t := range trees {
		root := find(i)
		if classOf[root] == 0 {
			classes = append(classes, class{})
			classOf[root] = len(classes)
		}
		c := &classes[classOf[root]-1]
		c.trees = append(c.trees, t)
		if i < len(m0) {
			c.in0 = true
		} else {
			c.in1 = true
		}
	}

	var out Forest
	var oneSided []*Tree
	for _, c := range classes {
		if !c.in0 || !c.in1 {
			// A class backed by only one operand encodes contingent
			// relations the other disjunct need not satisfy — unless the
			// relations are geometric tautologies (Example 3.13's two
			// same-base children), in which case they hold in every
			// state and may be kept.
			if t := joinClass(c.trees); t != nil && treeNecessary(t) {
				oneSided = append(oneSided, t)
			}
			continue
		}
		if t := joinClass(c.trees); t != nil {
			out = append(out, t)
		}
	}
	joined := out
	for _, t := range oneSided {
		if separateFromAll(t, joined) && separateFromAll(t, oneSided) {
			out = append(out, t)
		}
	}
	return out
}

// separateFromAll reports whether t is necessarily separate from every
// other tree of f.
func separateFromAll(t *Tree, f Forest) bool {
	for _, u := range f {
		if u != t && !necessarilySeparate(t, u) {
			return false
		}
	}
	return true
}

// emptyPred answers relation queries with no predicate knowledge: only
// geometric tautologies (same-base constant offsets, global constants)
// decide.
var emptyPred = pred.New()

// treeNecessary reports whether every relation the tree encodes is
// necessarily true in all states: top regions pairwise alias, children
// enclosed in the top, sibling children separate, recursively.
func treeNecessary(t *Tree) bool {
	for i := 0; i < len(t.Regions); i++ {
		for j := i + 1; j < len(t.Regions); j++ {
			if solver.Compare(emptyPred, t.Regions[i], t.Regions[j]).Alias != solver.Yes {
				return false
			}
		}
	}
	for i, kid := range t.Kids {
		enc := false
		for _, kr := range kid.Regions {
			v := solver.Compare(emptyPred, kr, t.Regions[0])
			if v.Enclosed == solver.Yes || v.Alias == solver.Yes {
				enc = true
			}
		}
		if !enc || !treeNecessary(kid) {
			return false
		}
		for j := i + 1; j < len(t.Kids); j++ {
			if !necessarilySeparate(kid, t.Kids[j]) {
				return false
			}
		}
	}
	return true
}

// necessarilySeparate reports whether every region of t is geometrically
// separate from every region of u.
func necessarilySeparate(t, u *Tree) bool {
	tr := t.Kids.AllRegions(append([]solver.Region(nil), t.Regions...))
	ur := u.Kids.AllRegions(append([]solver.Region(nil), u.Regions...))
	for _, a := range tr {
		for _, b := range ur {
			if solver.Compare(emptyPred, a, b).Separate != solver.Yes {
				return false
			}
		}
	}
	return true
}

// joinClass implements joint(T): intersect the region sets, join the child
// models pairwise. The node keeps the first tree's region order; a
// single-tree class shares its children.
func joinClass(class []*Tree) *Tree {
	var node []solver.Region
	first := class[0].Regions
	for i, r := range first {
		if slices.Contains(first[:i], r) {
			continue
		}
		inAll := true
		for _, t := range class[1:] {
			inAll = inAll && slices.Contains(t.Regions, r)
		}
		if inAll {
			node = append(node, r)
		}
	}
	if len(node) == 0 {
		return nil
	}
	kids := class[0].Kids
	for _, t := range class[1:] {
		kids = Join(kids, t.Kids)
	}
	return &Tree{Regions: node, Kids: kids}
}
