package hgstore_test

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/corpus"
	"repro/internal/hgstore"
	"repro/internal/solver"
	"repro/lift"
)

// TestExportDeterministic lifts each of the first units of the Table 1 lib
// corpus twice and requires byte-identical exported graphs. The binary
// format writes memory models in tree and region order, so this pins that
// exploration, and the memory-model join in particular, build every model
// in an order that does not depend on map iteration.
func TestExportDeterministic(t *testing.T) {
	var lib *corpus.Directory
	for _, sh := range corpus.XenSuite(0.02) {
		if sh.Name == "lib" {
			d, err := corpus.BuildDirectory(sh, 1)
			if err != nil {
				t.Fatal(err)
			}
			lib = d
		}
	}
	if lib == nil {
		t.Fatal("corpus has no lib directory")
	}
	units := lib.Units[:min(12, len(lib.Units))]
	export := func(u *corpus.Unit) []byte {
		sum := lift.Run(context.Background(), lift.UnitRequests([]*corpus.Unit{u}),
			lift.Jobs(1), lift.Cache(solver.NewCache()))
		if r := sum.Results[0]; r.Func != nil && r.Func.Graph != nil {
			return hgstore.MarshalGraph(r.Func.Graph)
		}
		return nil
	}
	exported := 0
	for _, u := range units {
		first := export(u)
		if first == nil {
			continue
		}
		exported++
		if second := export(u); !bytes.Equal(first, second) {
			t.Errorf("%s: two lifts exported different graphs (%d vs %d bytes)", u.Name, len(first), len(second))
		}
	}
	if exported == 0 {
		t.Fatal("no unit produced a graph")
	}
	t.Logf("%d of %d units exported a graph", exported, len(units))
}
