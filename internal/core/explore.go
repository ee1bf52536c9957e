package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"time"

	"repro/internal/hoare"
	"repro/internal/memmodel"
	"repro/internal/obs"
	"repro/internal/pred"
	"repro/internal/sem"
	"repro/internal/x86"
)

// workItem is one entry of Algorithm 1's bag: a symbolic state to explore
// at an instruction address.
type workItem struct {
	rip uint64
	st  *sem.State
}

// explorer holds the per-function exploration state.
type explorer struct {
	l      *Lifter
	ctx    context.Context
	tr     *obs.Tracer
	g      *hoare.Graph
	res    *FuncResult
	bag    []workItem
	vars   *pred.JoinVars  // join variables, resolved once per (vertex, part)
	seen   map[string]bool // NoJoin ablation: vertexID+stateKey dedup
	fatal  bool
	t0     time.Time
	before map[string]bool // machine assumptions snapshot
}

// explore runs Algorithm 1 from a function entry.
func (l *Lifter) explore(ctx context.Context, addr uint64, name string) *FuncResult {
	retSym := RetSymFor(addr)
	g := hoare.NewGraph(addr, name, retSym)
	res := &FuncResult{Name: name, Addr: addr, Status: StatusLifted, Graph: g}
	e := &explorer{
		l: l, ctx: ctx, tr: l.Cfg.Sem.Tracer,
		g: g, res: res,
		vars:   pred.NewJoinVars(),
		seen:   map[string]bool{},
		t0:     time.Now(),
		before: map[string]bool{},
	}
	e.tr.LiftStart(name, addr)
	for _, a := range l.mach.Assumptions() {
		e.before[a] = true
	}

	// Pointer pre-pass: install this function's fact table for the duration
	// of the exploration. Facts are keyed on the function's own initial-state
	// symbols (rsp0, rdi0, …), so a callee explored through handleCall swaps
	// in its own table and the defer restores the caller's on return.
	if l.Cfg.PointerFacts {
		prev := l.mach.Cfg.Facts
		l.mach.Cfg.Facts = l.pointerAnalysis(addr, name).Facts
		defer func() { l.mach.Cfg.Facts = prev }()
	}

	init := sem.InitialState(retSym)
	g.EntryID = l.vertexID(addr, init)
	g.Vertices[hoare.ExitID] = &hoare.Vertex{ID: hoare.ExitID}
	g.Vertices[hoare.HaltID] = &hoare.Vertex{ID: hoare.HaltID}
	e.bag = []workItem{{rip: addr, st: init}}

	for len(e.bag) > 0 && !e.fatal {
		if err := e.ctxErr(); err != nil {
			st := StatusCancelled
			if errors.Is(err, context.DeadlineExceeded) {
				st = StatusTimeout
			}
			e.fail(st, fmt.Sprintf("after %d steps: %v", res.Steps, err))
			break
		}
		if res.Steps >= l.Cfg.MaxStates ||
			(l.Cfg.Timeout > 0 && time.Since(e.t0) > l.Cfg.Timeout) {
			e.fail(StatusTimeout, fmt.Sprintf("exploration budget exhausted after %d steps", res.Steps))
			break
		}
		item := e.bag[len(e.bag)-1]
		e.bag = e.bag[:len(e.bag)-1]
		e.exploreOne(item)
	}

	// Per-function assumptions: everything the machine recorded that was
	// not present before this exploration.
	for _, a := range l.mach.Assumptions() {
		if !e.before[a] {
			g.Assumptions = append(g.Assumptions, a)
		}
	}
	sort.Strings(g.Assumptions)
	res.Duration = time.Since(e.t0)
	e.tr.LiftFinish(name, addr, res.Status.String(), res.Steps, res.Duration)
	return res
}

// ctxErr reports the exploration context's cancellation cause, nil while
// it is live (or when no context was threaded — the deprecated
// entrypoints pass context.Background()).
func (e *explorer) ctxErr() error {
	if e.ctx == nil {
		return nil
	}
	select {
	case <-e.ctx.Done():
		return e.ctx.Err()
	default:
		return nil
	}
}

// fail records a verification failure; the function is rejected and no
// (complete) HG is produced.
func (e *explorer) fail(st Status, reason string) {
	if e.res.Status == StatusLifted {
		e.res.Status = st
	}
	e.res.Reasons = append(e.res.Reasons, reason)
	e.fatal = true
}

// vertexID keys a vertex: the instruction address in hex plus, unless the
// ablation disables it, the code-pointer signature of the state, one
// "/part" per code pointer (states holding different immediate pointers
// into the text section are incompatible and kept apart; Section 4).
func (l *Lifter) vertexID(rip uint64, st *sem.State) hoare.VertexID {
	var buf [32]byte
	id := strconv.AppendUint(buf[:0], rip, 16)
	if !l.Cfg.JoinCodePointers {
		lo, hi := l.Img.TextRange()
		for _, p := range st.Pred.CodePointerParts(lo, hi) {
			id = append(append(id, '/'), p...)
		}
	}
	return hoare.VertexID(id)
}

// exploreOne is the body of Algorithm 1's explore function: join with a
// compatible state if one exists, stop at the fixed point, otherwise step
// and enqueue the successors.
func (e *explorer) exploreOne(item workItem) {
	vid := e.l.vertexID(item.rip, item.st)
	v, exists := e.g.Vertices[vid]
	var cur *sem.State
	switch {
	case exists && !e.l.Cfg.NoJoin:
		joined := &sem.State{
			Pred: pred.Join(item.st.Pred, v.State.Pred, string(vid), e.vars),
			Mem:  memmodel.Join(item.st.Mem, v.State.Mem),
		}
		if joined.Same(v.State) {
			return // σ ⊑ σc: no further exploration necessary
		}
		v.State = joined
		v.Joins++
		e.tr.Join(item.rip, string(vid))
		cur = joined
	case exists: // NoJoin ablation
		k := string(vid) + "|" + item.st.Key()
		if e.seen[k] {
			return
		}
		e.seen[k] = true
		cur = item.st
	default:
		v = &hoare.Vertex{ID: vid, Addr: item.rip, State: item.st}
		e.g.Vertices[vid] = v
		cur = item.st
	}
	e.res.Steps++
	e.tr.Step(item.rip)

	inst, err := e.l.Img.Fetch(item.rip)
	if err != nil {
		e.g.Annotate(item.rip, hoare.AnnFetchError, err.Error())
		e.fail(StatusError, fmt.Sprintf("fetch at %#x: %v", item.rip, err))
		return
	}
	e.g.Instrs[item.rip] = inst

	outs, err := e.l.mach.Step(cur, inst)
	if err != nil {
		e.g.Annotate(item.rip, hoare.AnnFetchError, err.Error())
		e.fail(StatusError, err.Error())
		return
	}
	for _, o := range outs {
		e.handleOutcome(v, inst, o)
		if e.fatal {
			return
		}
	}
}

// isIndirect reports whether the instruction computes its target
// dynamically (r/m operand rather than an immediate).
func isIndirect(inst x86.Inst) bool {
	return len(inst.Ops) == 1 && inst.Ops[0].Kind != x86.OpImm
}

// handleOutcome processes one element of stepΣ(σ).
func (e *explorer) handleOutcome(v *hoare.Vertex, inst x86.Inst, o sem.Outcome) {
	switch o.Kind {
	case sem.KHalt:
		e.g.AddEdge(hoare.Edge{From: v.ID, To: hoare.HaltID, Inst: inst, Kind: o.Kind})

	case sem.KFall, sem.KJump:
		tgt, ok := o.Resolved()
		if !ok {
			// Bounded control flow violated: annotate, stop this path
			// (Line 13 of Algorithm 1).
			e.g.Annotate(inst.Addr, hoare.AnnUnresolvedJump,
				fmt.Sprintf("rip evaluates to %v", o.Target))
			return
		}
		if !e.l.Img.InText(tgt) {
			e.g.Annotate(inst.Addr, hoare.AnnUnresolvedJump,
				fmt.Sprintf("target %#x outside executable sections", tgt))
			return
		}
		if o.Kind == sem.KJump && isIndirect(inst) {
			e.g.Resolved[inst.Addr] = true
		}
		tid := e.l.vertexID(tgt, o.State)
		e.g.AddEdge(hoare.Edge{From: v.ID, To: tid, Inst: inst, Kind: o.Kind})
		e.bag = append(e.bag, workItem{rip: tgt, st: o.State})

	case sem.KRet:
		chk := sem.CheckReturn(o, e.g.RetSym)
		if !chk.OK {
			e.fail(StatusUnprovableRet, fmt.Sprintf("@%x: %v", inst.Addr, chk.Reasons))
			return
		}
		e.res.Returns = true
		e.g.AddEdge(hoare.Edge{From: v.ID, To: hoare.ExitID, Inst: inst, Kind: o.Kind})

	case sem.KCall:
		e.handleCall(v, inst, o)
	}
}

// handleCall implements the Section 4.2 call treatment.
func (e *explorer) handleCall(v *hoare.Vertex, inst x86.Inst, o sem.Outcome) {
	l := e.l
	tgt, ok := o.Resolved()
	if !ok {
		// Unresolved indirect call (column C): treated
		// overapproximatively as an unknown external function.
		e.g.Annotate(inst.Addr, hoare.AnnUnresolvedCall,
			fmt.Sprintf("call target evaluates to %v", o.Target))
		e.continueAfterCall(v, inst, o, "<unresolved>")
		return
	}
	if isIndirect(inst) {
		e.g.Resolved[inst.Addr] = true
	}

	if name, isPLT := l.Img.PLTName(tgt); isPLT {
		switch {
		case l.isConcurrency(name):
			e.fail(StatusConcurrency, fmt.Sprintf("@%x: call to %s", inst.Addr, name))
		case l.isTerminating(name):
			e.g.AddEdge(hoare.Edge{From: v.ID, To: hoare.HaltID, Inst: inst, Kind: o.Kind, Callee: name})
		default:
			obls := l.mach.CallObligations(o.State, name, inst.Addr)
			for _, obl := range obls {
				e.tr.Obligation(inst.Addr, obl)
			}
			e.g.Obligations = append(e.g.Obligations, obls...)
			e.continueAfterCall(v, inst, o, name)
		}
		return
	}

	if !l.Img.InText(tgt) {
		e.g.Annotate(inst.Addr, hoare.AnnUnresolvedCall,
			fmt.Sprintf("call target %#x outside executable sections", tgt))
		e.continueAfterCall(v, inst, o, "<unmapped>")
		return
	}

	// Internal call: context-free exploration, once per callee.
	name := fmt.Sprintf("sub_%x", tgt)
	if sname, ok := l.Img.SymbolName(tgt); ok {
		name = sname
	}
	if l.inProgress[tgt] {
		// (Mutual) recursion: the callee's summary is being computed.
		// Assume it adheres to the calling convention and may return —
		// recorded as an explicit assumption.
		e.g.Assumptions = append(e.g.Assumptions,
			fmt.Sprintf("@%x : recursive call to %s assumed to return per calling convention", inst.Addr, name))
		e.continueAfterCall(v, inst, o, name)
		return
	}
	sum := l.LiftFuncCtx(e.ctx, tgt, name)
	if sum.Status != StatusLifted {
		st := sum.Status
		if st == StatusError {
			st = StatusUnprovableRet
		}
		e.fail(st, fmt.Sprintf("@%x: callee %s: %s", inst.Addr, name, sum.Status))
		return
	}
	if !sum.Returns {
		// The callee never returns normally; the continuation is not
		// reachable (Section 4.2.2's reachability field).
		e.g.AddEdge(hoare.Edge{From: v.ID, To: hoare.HaltID, Inst: inst, Kind: o.Kind, Callee: name})
		return
	}
	e.continueAfterCall(v, inst, o, name)
}

// continueAfterCall cleans the state per the System V ABI and enqueues the
// call-site continuation.
func (e *explorer) continueAfterCall(v *hoare.Vertex, inst x86.Inst, o sem.Outcome, callee string) {
	cont := e.l.mach.CleanAfterCall(o.State, inst.Addr)
	next := inst.Next()
	tid := e.l.vertexID(next, cont)
	e.g.AddEdge(hoare.Edge{From: v.ID, To: tid, Inst: inst, Kind: o.Kind, Callee: callee})
	e.bag = append(e.bag, workItem{rip: next, st: cont})
}
