package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/hgstore"
	"repro/internal/image"
	"repro/internal/obs"
	"repro/internal/ptr"
	"repro/internal/sem"
	"repro/internal/solver"
	"repro/internal/triple"
	"repro/lift"
)

// corpusSeed generates the Table 1 directories. It is the xenbench
// default and stays fixed: seeding the corpus from the workload seed made
// the lib directory's lift cost differ by up to 25% between seeds (1874
// units per paper-scale directory shrink to 191 here, and a handful of
// large units dominate), so no bound could separate a regression from a
// seed. The workload seed varies the proof order and the edit sequence.
const corpusSeed = 1

// Corpus sizes: full runs, and the tiny self-test. lib at scale 0.1 has
// 191 units, enough for p90 to have 19 samples beyond it; the tiny scale
// 0.03 includes lib_057, the generator's known timeout mislabel.
const (
	libScale, libScaleTiny             = 0.1, 0.03
	coreutilsScale, coreutilsScaleTiny = 1.0, 0.2
	lowlevelScale, lowlevelScaleTiny   = 1.0, 0.1
)

// editsPerRound is how many lowlevel units one edit round flips.
const editsPerRound = 4

// verdict classifies one lift result against the generator's label.
func verdict(o *outcome, name string, r lift.Result, expect core.Status) {
	o.attempted++
	switch r.Status {
	case core.StatusLifted, core.StatusUnprovableRet, core.StatusConcurrency:
		o.decided++
	case core.StatusPanic, core.StatusError, core.StatusCancelled:
		o.failed++
	}
	if r.Status == expect {
		o.correct++
		return
	}
	m := fmt.Sprintf("%s: got %s, generator label %s", name, r.Status, expect)
	if expect == core.StatusTimeout && r.Status == core.StatusLifted {
		// The generator labels its largest units "timeout" without
		// checking that they exceed the step budget; a definite lift of
		// such a unit is a wrong label, not a wrong lift. It still
		// counts against correct_ratio.
		o.tolerated++
		m += " (known generator mislabel: a timeout-labelled unit that lifts within its budget)"
	}
	o.mismatches = append(o.mismatches, m)
}

// sized picks the full or the tiny corpus scale.
func sized(cfg *config, full, tiny float64) float64 {
	if cfg.tiny {
		return tiny
	}
	return full
}

// tableOneDir builds one Table 1 directory.
func tableOneDir(name string, scale float64) (*corpus.Directory, error) {
	for _, sh := range corpus.XenSuite(scale) {
		if sh.Name == name {
			return corpus.BuildDirectory(sh, corpusSeed)
		}
	}
	return nil, fmt.Errorf("corpus has no %s directory", name)
}

// libCold lifts the lib directory unit by unit in a fresh process: Step-1
// exploration with no store and no pointer facts. It lifts in generator
// order whatever the seed: the intern table is live heap that every GC
// cycle marks, so the order in which large units grow it moved the whole
// pass's cost by 10-15% between seeds.
func libCold(ctx context.Context, cfg *config) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	scale := sized(cfg, libScale, libScaleTiny)
	var dir *corpus.Directory
	for i := 0; i < setupTimes(cfg, 15); i++ {
		id := cfg.sp.begin("corpus.BuildDirectory", 0)
		t0 := time.Now()
		d, err := tableOneDir("lib", scale)
		if err != nil {
			return nil, err
		}
		cfg.sp.end(id)
		o.setups = append(o.setups, time.Since(t0))
		o.compile = o.setups[i]
		dir = d
	}
	units := dir.Units
	fmt.Fprintf(cfg.out, "# lib_cold: %d units of lib (scale %g, corpus seed %d), lifted one lift.Run each at Jobs(1)\n",
		len(units), scale, corpusSeed)

	opts := []lift.Option{lift.Jobs(1), lift.Cache(solver.NewCache())}
	if cfg.traced {
		opts = append(opts, lift.Observe(cfg.metrics))
	}
	stop, err := timedPhase(cfg, o)
	if err != nil {
		return nil, err
	}
	root := cfg.sp.begin("lib_cold.timed", 0)
	var st lift.Stats
	var sched time.Duration
	for i, u := range units {
		id := cfg.sp.begin("lift.Run", root)
		t0 := time.Now()
		sum := lift.Run(ctx, lift.UnitRequests(units[i:i+1]), opts...)
		d := time.Since(t0)
		cfg.sp.end(id)
		r := sum.Results[0]
		o.unitMS = append(o.unitMS, ms(d))
		st.Add(r.Stats)
		sched += sum.Wall - r.Stats.Wall
		verdict(o, u.Name, r, u.Expect)
	}
	o.endPass()
	cfg.sp.end(root)
	if err := stop(); err != nil {
		return nil, err
	}
	liftLayers(o, st, sched, 1)
	o.layer["cgen.compile_s"] = o.compile.Seconds()
	if cfg.traced {
		// The pre-pass is timed after the timed phase so it does not
		// perturb it: it predicts what an unconditional pre-pass adds.
		id := cfg.sp.begin("ptr.Analyze.all", 0)
		var total time.Duration
		for _, u := range units {
			sid := cfg.sp.begin("ptr.Analyze", id)
			t0 := time.Now()
			ptr.Analyze(u.Image, u.FuncAddr)
			total += time.Since(t0)
			cfg.sp.end(sid)
		}
		cfg.sp.end(id)
		o.layer["ptr.analyze_ms_per_unit"] = ms(total) / float64(len(units))
	}
	return o, nil
}

// liftLayers fills the Step-1 layer metrics from summed lift statistics,
// divided by the number of passes.
func liftLayers(o *outcome, st lift.Stats, sched time.Duration, passes int) {
	p := float64(passes)
	o.layer["core.lift_s"] = st.Wall.Seconds() / p
	o.layer["core.states"] = float64(st.Graph.States) / p
	o.layer["core.joins"] = float64(st.Graph.Joins) / p
	o.layer["solver.queries"] = float64(st.Sem.SolverQueries) / p
	o.layer["solver.hit_ratio"] = st.SolverHitRate()
	o.layer["memmodel.forks"] = float64(st.Sem.Forks) / p
	o.layer["memmodel.destroys"] = float64(st.Sem.Destroys) / p
	o.layer["memmodel.fallbacks"] = float64(st.Sem.Fallbacks) / p
	o.layer["pipeline.sched_ms"] = ms(sched) / p
}

// exported is one function graph of a Table 2 binary, as exported.
type exported struct {
	name string
	img  *image.Image
	blob []byte
}

// coreutilsSetup lifts the Table 2 binaries and exports every function
// graph. Every binary must lift: Step 2 needs all of its graphs.
func coreutilsSetup(ctx context.Context, cfg *config) ([]exported, time.Duration, error) {
	id := cfg.sp.begin("corpus.CoreUtilsSuite", 0)
	t0 := time.Now()
	units, err := corpus.CoreUtilsSuite(sized(cfg, coreutilsScale, coreutilsScaleTiny))
	compile := time.Since(t0)
	cfg.sp.end(id)
	if err != nil {
		return nil, 0, err
	}
	reqs := make([]lift.Request, len(units))
	for i, u := range units {
		reqs[i] = lift.Binary(u.Name, u.Image)
	}
	id = cfg.sp.begin("lift.Run", 0)
	sum := lift.Run(ctx, reqs, lift.Jobs(cfg.nproc))
	cfg.sp.end(id)
	var graphs []exported
	for i, r := range sum.Results {
		if r.Status != core.StatusLifted || r.Binary == nil {
			return nil, 0, fmt.Errorf("correctness check cannot run: Table 2 binary %s did not lift (%s)", r.Name, r.Status)
		}
		for _, fr := range r.Binary.Funcs {
			sid := cfg.sp.begin("hgstore.MarshalGraph", 0)
			graphs = append(graphs, exported{r.Name + "/" + fr.Name, units[i].Image, hgstore.MarshalGraph(fr.Graph)})
			cfg.sp.end(sid)
		}
	}
	return graphs, compile, nil
}

// coreutilsProve re-proves every exported Table 2 graph, as `hgprove -hg`
// does: load the graph file, then check every theorem in parallel.
func coreutilsProve(ctx context.Context, cfg *config) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	var graphs []exported
	for i := 0; i < setupTimes(cfg, 3); i++ {
		t0 := time.Now()
		g, compile, err := coreutilsSetup(ctx, cfg)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0))
		o.compile = compile
		graphs = g
	}
	fmt.Fprintf(cfg.out, "# coreutils_prove: %d graphs of 6 Table 2 binaries, triple.Check at Workers(%d)\n", len(graphs), cfg.nproc)

	copts := []triple.CheckOption{triple.Workers(cfg.nproc)}
	if cfg.traced {
		copts = append(copts, triple.WithTracer(obs.NewTracer(cfg.metrics)))
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var loadMS, checkMS []float64
	var theorems, proven, assumed int
	stop, err := timedPhase(cfg, o)
	if err != nil {
		return nil, err
	}
	root := cfg.sp.begin("coreutils_prove.timed", 0)
	// Passes run until --seconds have passed; tiny runs make exactly two,
	// so their counts repeat.
	for cfg.tiny && len(o.passMS) < 2 || !cfg.tiny && time.Since(o.start.wall).Seconds() < cfg.seconds {
		for _, i := range rng.Perm(len(graphs)) {
			g := graphs[i]
			o.attempted++
			id := cfg.sp.begin("hgstore.LoadGraph", root)
			t0 := time.Now()
			hg, err := hgstore.LoadGraph(g.img, g.blob)
			tl := time.Since(t0)
			cfg.sp.end(id)
			loadMS = append(loadMS, ms(tl))
			if err != nil {
				o.failed++
				o.mismatches = append(o.mismatches, fmt.Sprintf("%s: LoadGraph: %v", g.name, err))
				o.unitMS = append(o.unitMS, ms(tl))
				continue
			}
			id = cfg.sp.begin("triple.Check", root)
			t1 := time.Now()
			rep := triple.Check(ctx, g.img, hg, sem.DefaultConfig(), copts...)
			tc := time.Since(t1)
			cfg.sp.end(id)
			checkMS = append(checkMS, ms(tc))
			o.unitMS = append(o.unitMS, ms(tl+tc))
			theorems += len(rep.Theorems)
			proven += rep.Proven
			assumed += rep.Assumed
			if rep.Skipped == 0 {
				o.decided++
			} else {
				o.failed++
			}
			if rep.AllProven() && rep.Proven+rep.Assumed == len(rep.Theorems) {
				o.correct++
			} else {
				o.mismatches = append(o.mismatches, fmt.Sprintf("%s: %d failed, %d skipped of %d theorems",
					g.name, rep.Failed, rep.Skipped, len(rep.Theorems)))
			}
		}
		o.endPass()
	}
	cfg.sp.end(root)
	if err := stop(); err != nil {
		return nil, err
	}
	p := float64(len(o.passMS))
	o.layer["triple.check_ms_p50"], _ = quantile(checkMS, 0.5)
	o.layer["triple.check_ms_p90"], _ = quantile(checkMS, 0.9)
	o.layer["triple.theorems"] = float64(theorems) / p
	o.layer["triple.proven"] = float64(proven) / p
	o.layer["triple.assumed"] = float64(assumed) / p
	o.layer["hgstore.load_graph_ms"] = median(loadMS)
	o.layer["cgen.compile_s"] = o.compile.Seconds()
	return o, nil
}

// lowlevelEdit fills an HG store with the lowlevel directory, then runs
// edit rounds: flip a few seeded units and re-run the whole directory
// against the store in write-through mode, as the CLI does.
func lowlevelEdit(ctx context.Context, cfg *config) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	path := filepath.Join(cfg.workdir, "lowlevel_edit.hgcs")
	defer removeStore(path)
	var dir *corpus.Directory
	for i := 0; i < setupTimes(cfg, 3); i++ {
		t0 := time.Now()
		d, compile, err := lowlevelSetup(ctx, cfg, path)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, time.Since(t0))
		o.compile = compile
		dir = d
	}
	units := dir.Units
	fmt.Fprintf(cfg.out, "# lowlevel_edit: %d units of lowlevel (corpus seed %d), %d edits per round, write-through store, Jobs(1)\n",
		len(units), corpusSeed, editsPerRound)

	// One cycle edits every unit exactly once, in seeded order and
	// grouping, whatever --seconds says: a second flip of the same byte
	// restores code the store already holds, and a partial cycle re-lifts
	// a seed-dependent subset whose cost moved units_per_s by 20%.
	edits := rand.New(rand.NewSource(cfg.seed)).Perm(len(units))
	sink := newTaskSink()
	observe := lift.Observe(sink)
	if cfg.traced {
		observe = lift.Observe(sink, cfg.metrics)
	}
	var st lift.Stats
	var sched, writes time.Duration
	var hits, misses int
	stop, err := timedPhase(cfg, o)
	if err != nil {
		return nil, err
	}
	root := cfg.sp.begin("lowlevel_edit.timed", 0)
	for len(edits) > 0 {
		n := min(editsPerRound, len(edits))
		edited := map[string]bool{}
		for _, i := range edits[:n] {
			id := cfg.sp.begin("corpus.FlipUnit", root)
			if _, err := corpus.FlipUnit(units[i]); err != nil {
				return nil, err
			}
			cfg.sp.end(id)
			edited[units[i].Name] = true
		}
		edits = edits[n:]
		id := cfg.sp.begin("lift.OpenStore", root)
		store, err := lift.OpenStore(path)
		cfg.sp.end(id)
		if err != nil {
			return nil, err
		}
		if n := store.Dropped(); n != 0 {
			o.failed += n
			o.mismatches = append(o.mismatches, fmt.Sprintf("store: %d corrupt records dropped on open", n))
		}
		id = cfg.sp.begin("lift.Run", root)
		sum := lift.Run(ctx, lift.UnitRequests(units), lift.Jobs(1), lift.WithStore(store), observe)
		cfg.sp.end(id)
		walls := sink.takeWalls()
		var taskSum time.Duration
		for i, r := range sum.Results {
			w := walls[r.Name]
			taskSum += w
			o.unitMS = append(o.unitMS, ms(w))
			verdict(o, r.Name, r, units[i].Expect)
			if r.FromStore == edited[r.Name] {
				o.mismatches = append(o.mismatches, fmt.Sprintf("%s: edited=%v but served from store=%v",
					r.Name, edited[r.Name], r.FromStore))
			}
			if !r.FromStore {
				st.Add(r.Stats)
				writes += w - r.Stats.Wall
			}
		}
		sched += sum.Wall - taskSum
		hits += sum.StoreHits
		misses += sum.StoreMisses
		o.endPass()
	}
	cfg.sp.end(root)
	if err := stop(); err != nil {
		return nil, err
	}
	o.failed += sink.corrupt
	p := float64(len(o.passMS))
	liftLayers(o, st, sched, len(o.passMS))
	o.layer["hgstore.hits"] = float64(hits) / p
	o.layer["hgstore.misses"] = float64(misses) / p
	o.layer["hgstore.decode_ms_p50"], _ = quantile(sink.decodes, 0.5)
	o.layer["hgstore.flush_s"] = writes.Seconds() / p
	if fi, err := os.Stat(path); err == nil {
		o.layer["hgstore.container_mb"] = float64(fi.Size()) / (1 << 20)
	}
	o.layer["cgen.compile_s"] = o.compile.Seconds()
	return o, nil
}

// lowlevelSetup generates the lowlevel directory and fills a fresh store
// with it, lifting in parallel and flushing once.
func lowlevelSetup(ctx context.Context, cfg *config, path string) (*corpus.Directory, time.Duration, error) {
	removeStore(path)
	id := cfg.sp.begin("corpus.BuildDirectory", 0)
	t0 := time.Now()
	dir, err := tableOneDir("lowlevel", sized(cfg, lowlevelScale, lowlevelScaleTiny))
	compile := time.Since(t0)
	cfg.sp.end(id)
	if err != nil {
		return nil, 0, err
	}
	id = cfg.sp.begin("lift.OpenStore", 0)
	store, err := lift.OpenStore(path)
	cfg.sp.end(id)
	if err != nil {
		return nil, 0, err
	}
	store.SetAutoFlush(false)
	id = cfg.sp.begin("lift.Run", 0)
	sum := lift.Run(ctx, lift.UnitRequests(dir.Units), lift.Jobs(cfg.nproc), lift.WithStore(store))
	cfg.sp.end(id)
	if sum.StoreMisses != len(dir.Units) {
		return nil, 0, fmt.Errorf("store fill: %d misses for %d units", sum.StoreMisses, len(dir.Units))
	}
	id = cfg.sp.begin("hgstore.Flush", 0)
	err = store.Flush()
	cfg.sp.end(id)
	return dir, compile, err
}

// removeStore deletes a store container and its lock sidecar.
func removeStore(path string) {
	os.Remove(path)
	os.Remove(path + ".lock")
}
