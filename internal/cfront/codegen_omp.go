package cfront

import (
	"fmt"
	"sort"

	"repro/internal/cast"
	"repro/internal/ir"
	"repro/internal/omp"
)

func ompDecls(m *ir.Module) map[string]*ir.Function {
	return omp.DeclareRuntime(m)
}

// genOmpParallel lowers "#pragma omp parallel" by outlining the region
// into a microtask function and emitting a __kmpc_fork_call, the exact
// shape Polly/Clang produce and the shape SPLENDID detransforms.
//
// Shared variables (locals of the enclosing function referenced by the
// region and not listed private) are captured by address: their allocas
// are passed as pointer arguments, so reads and writes inside the region
// hit the caller's storage. Globals need no capture.
func (c *compiler) genOmpParallel(body *cast.Block, private []string) error {
	if c.gtid != nil {
		return c.errf("nested parallel regions are not supported")
	}
	privSet := map[string]bool{}
	for _, p := range private {
		privSet[p] = true
	}
	// Captured = referenced names bound to enclosing locals, minus
	// privates and minus names declared inside the region.
	declared := map[string]bool{}
	collectDecls(body, declared)
	refs := map[string]bool{}
	collectIdents(body, refs)
	var captured []string
	for name := range refs {
		if privSet[name] || declared[name] {
			continue
		}
		if c.lookup(name) != nil {
			captured = append(captured, name)
		}
	}
	sort.Strings(captured)

	// Build the outlined function.
	c.outlineSeq++
	var sharedTypes []ir.Type
	var sharedArgs []ir.Value
	var capInfos []*varInfo
	for _, name := range captured {
		vi := c.lookup(name)
		sharedTypes = append(sharedTypes, vi.addr.Type())
		sharedArgs = append(sharedArgs, vi.addr)
		capInfos = append(capInfos, vi)
	}
	outName := fmt.Sprintf("%s.omp_outlined.%d", c.fn.Nam, c.outlineSeq)
	paramNames := []string{"gtid.ptr", "btid.ptr"}
	for _, n := range captured {
		paramNames = append(paramNames, n+".shared")
	}
	out := ir.NewFunction(outName, omp.MicrotaskSig(sharedTypes), paramNames...)
	out.Outlined = true
	c.mod.AddFunc(out)

	// Save caller state, switch into the outlined function.
	savedFn, savedBd, savedScopes := c.fn, c.bd, c.scopes
	savedBreaks, savedConts := c.breaks, c.continues
	c.fn, c.bd = out, ir.NewBuilder(out)
	c.scopes, c.breaks, c.continues = nil, nil, nil
	c.pushScope()

	entry := out.NewBlock("entry")
	c.bd.SetBlock(entry)
	gtid := c.bd.Load(out.Params[0], "gtid")
	c.gtid = gtid

	for i, name := range captured {
		c.define(name, &varInfo{addr: out.Params[i+2], ctype: capInfos[i].ctype})
	}
	for _, name := range private {
		// Private variables: fresh uninitialized storage per worker. The
		// variable's type comes from the enclosing binding when present,
		// defaulting to long.
		var ct cast.Type = cast.LongT
		if vi := c.lookupIn(savedScopes, name); vi != nil {
			ct = vi.ctype
		}
		addr := c.bd.Alloca(irType(ct), name+".addr")
		c.bd.DbgValue(addr, name)
		c.define(name, &varInfo{addr: addr, ctype: ct})
	}

	err := c.genBlock(body)
	if err == nil {
		c.ensureOpen()
		if c.bd.Cur.Terminator() == nil {
			c.bd.Ret(nil)
		}
	}

	// Restore caller state.
	c.fn, c.bd, c.scopes = savedFn, savedBd, savedScopes
	c.breaks, c.continues = savedBreaks, savedConts
	c.gtid = nil
	if err != nil {
		return err
	}

	// Emit the fork.
	fork := c.runtime(omp.ForkCall)
	args := append([]ir.Value{ir.I32Const(int64(len(sharedArgs))), out}, sharedArgs...)
	c.bd.Call(fork, args, "")
	return nil
}

func (c *compiler) lookupIn(scopes []map[string]*varInfo, name string) *varInfo {
	for i := len(scopes) - 1; i >= 0; i-- {
		if vi, ok := scopes[i][name]; ok {
			return vi
		}
	}
	return nil
}

// ompLoopShape describes the canonical loop under an omp for pragma.
type ompLoopShape struct {
	ivName string
	init   cast.Expr
	// bound and pred give the source condition "iv pred bound".
	pred  string
	bound cast.Expr
	step  int64
}

func canonicalOmpLoop(loop *cast.For) (*ompLoopShape, error) {
	sh := &ompLoopShape{}
	switch init := loop.Init.(type) {
	case *cast.Decl:
		if init.Init == nil {
			return nil, fmt.Errorf("omp for: loop variable %s must be initialized", init.Name)
		}
		sh.ivName, sh.init = init.Name, init.Init
	case *cast.ExprStmt:
		as, ok := init.X.(*cast.Assign)
		if !ok || as.Op != "=" {
			return nil, fmt.Errorf("omp for: init must assign the loop variable")
		}
		id, ok := as.LHS.(*cast.Ident)
		if !ok {
			return nil, fmt.Errorf("omp for: loop variable must be a scalar identifier")
		}
		sh.ivName, sh.init = id.Name, as.RHS
	default:
		return nil, fmt.Errorf("omp for: missing canonical init")
	}
	cond, ok := loop.Cond.(*cast.Bin)
	if !ok {
		return nil, fmt.Errorf("omp for: condition must be a comparison")
	}
	l, ok := cond.L.(*cast.Ident)
	if !ok || l.Name != sh.ivName {
		return nil, fmt.Errorf("omp for: condition must compare the loop variable")
	}
	switch cond.Op {
	case "<", "<=", ">", ">=":
		sh.pred = cond.Op
	default:
		return nil, fmt.Errorf("omp for: unsupported comparison %q", cond.Op)
	}
	sh.bound = cond.R

	post, ok := loop.Post.(*cast.ExprStmt)
	if !ok {
		return nil, fmt.Errorf("omp for: missing increment")
	}
	switch pe := post.X.(type) {
	case *cast.IncDec:
		id, ok := pe.X.(*cast.Ident)
		if !ok || id.Name != sh.ivName {
			return nil, fmt.Errorf("omp for: increment must step the loop variable")
		}
		if pe.Op == "++" {
			sh.step = 1
		} else {
			sh.step = -1
		}
	case *cast.Assign:
		id, ok := pe.LHS.(*cast.Ident)
		if !ok || id.Name != sh.ivName {
			return nil, fmt.Errorf("omp for: increment must step the loop variable")
		}
		switch pe.Op {
		case "+=":
			lit, ok := pe.RHS.(*cast.IntLit)
			if !ok {
				return nil, fmt.Errorf("omp for: step must be an integer constant")
			}
			sh.step = lit.V
		case "-=":
			lit, ok := pe.RHS.(*cast.IntLit)
			if !ok {
				return nil, fmt.Errorf("omp for: step must be an integer constant")
			}
			sh.step = -lit.V
		case "=":
			// i = i + c  or  i = c + i
			bin, ok := pe.RHS.(*cast.Bin)
			if !ok || bin.Op != "+" && bin.Op != "-" {
				return nil, fmt.Errorf("omp for: unsupported increment")
			}
			var lit *cast.IntLit
			if id2, ok := bin.L.(*cast.Ident); ok && id2.Name == sh.ivName {
				lit, _ = bin.R.(*cast.IntLit)
			} else if id2, ok := bin.R.(*cast.Ident); ok && id2.Name == sh.ivName && bin.Op == "+" {
				lit, _ = bin.L.(*cast.IntLit)
			}
			if lit == nil {
				return nil, fmt.Errorf("omp for: unsupported increment expression")
			}
			sh.step = lit.V
			if bin.Op == "-" {
				sh.step = -lit.V
			}
		default:
			return nil, fmt.Errorf("omp for: unsupported increment operator %q", pe.Op)
		}
	default:
		return nil, fmt.Errorf("omp for: unsupported increment statement")
	}
	if sh.step == 0 {
		return nil, fmt.Errorf("omp for: zero step")
	}
	if sh.step > 0 && (sh.pred == ">" || sh.pred == ">=") ||
		sh.step < 0 && (sh.pred == "<" || sh.pred == "<=") {
		return nil, fmt.Errorf("omp for: step direction contradicts condition")
	}
	return sh, nil
}

// genOmpFor lowers a worksharing loop inside a parallel region: the
// iteration space is narrowed per worker by __kmpc_for_static_init_8 and
// closed by __kmpc_for_static_fini, with an implicit barrier unless
// nowait.
func (c *compiler) genOmpFor(st *cast.OmpFor) error {
	switch st.Schedule {
	case "", "static":
	case "dynamic":
		return c.genOmpForDispatch(st, omp.SchedDynamic)
	case "guided":
		return c.genOmpForDispatch(st, omp.SchedGuided)
	case "auto":
		return c.genOmpForDispatch(st, omp.SchedAuto)
	default:
		return c.errf("omp for: unsupported schedule %q", st.Schedule)
	}
	sh, err := canonicalOmpLoop(st.Loop)
	if err != nil {
		return c.errf("%v", err)
	}

	initV, ict, err := c.genExpr(sh.init)
	if err != nil {
		return err
	}
	initV = c.convert(initV, ict, cast.LongT)
	boundV, bct, err := c.genExpr(sh.bound)
	if err != nil {
		return err
	}
	boundV = c.convert(boundV, bct, cast.LongT)

	// Inclusive upper (or lower, for negative steps) bound.
	var ubV ir.Value
	switch sh.pred {
	case "<":
		ubV = c.bd.Bin(ir.OpSub, boundV, ir.I64Const(1), "ub")
	case "<=":
		ubV = boundV
	case ">":
		ubV = c.bd.Bin(ir.OpAdd, boundV, ir.I64Const(1), "lb")
	case ">=":
		ubV = boundV
	}

	lower := c.bd.Alloca(ir.I64, "omp.lb")
	upper := c.bd.Alloca(ir.I64, "omp.ub")
	stride := c.bd.Alloca(ir.I64, "omp.stride")
	last := c.bd.Alloca(ir.I64, "omp.lastiter")
	c.bd.Store(initV, lower)
	c.bd.Store(ubV, upper)
	chunk := int64(st.Chunk)
	if chunk <= 0 {
		chunk = 1
	}
	c.bd.Call(c.runtime(omp.ForStaticInit), []ir.Value{
		c.gtid, ir.I32Const(omp.SchedStatic),
		last, lower, upper, stride,
		ir.I64Const(sh.step), ir.I64Const(chunk),
	}, "")
	myLB := c.bd.Load(lower, "omp.mylb")
	myUB := c.bd.Load(upper, "omp.myub")

	// The loop variable is implicitly private: fresh storage here.
	c.pushScope()
	ivAddr := c.bd.Alloca(ir.I64, sh.ivName+".addr")
	c.bd.DbgValue(ivAddr, sh.ivName)
	c.define(sh.ivName, &varInfo{addr: ivAddr, ctype: cast.LongT})
	c.bd.Store(myLB, ivAddr)

	// Reduction variables: a private partial per worker, seeded with the
	// operator's identity; the loop body sees the partial under the
	// variable's name, and the partials combine atomically at loop end.
	type redPartial struct {
		name       string
		op         string
		ct         cast.Type
		partial    ir.Value
		sharedAddr ir.Value
	}
	var redPartials []redPartial
	for _, red := range st.Reductions {
		vi := c.lookup(red.Var)
		if vi == nil {
			return c.errf("reduction variable %q is not in scope", red.Var)
		}
		it := irType(vi.ctype)
		partial := c.bd.Alloca(it, red.Var+".red")
		c.bd.DbgValue(partial, red.Var)
		var ident ir.Value
		if ir.IsFloatType(it) {
			if red.Op == "*" {
				ident = ir.F64Const(1)
			} else {
				ident = ir.F64Const(0)
			}
		} else {
			if red.Op == "*" {
				ident = ir.I64Const(1)
			} else {
				ident = ir.I64Const(0)
			}
		}
		c.bd.Store(ident, partial)
		c.define(red.Var, &varInfo{addr: partial, ctype: vi.ctype})
		redPartials = append(redPartials, redPartial{
			name: red.Var, op: red.Op, ct: vi.ctype,
			partial: partial, sharedAddr: vi.addr,
		})
	}

	condB := c.fn.NewBlock("omp.for.cond")
	bodyB := c.fn.NewBlock("omp.for.body")
	incB := c.fn.NewBlock("omp.for.inc")
	endB := c.fn.NewBlock("omp.for.end")
	c.bd.Br(condB)
	c.bd.SetBlock(condB)
	iv := c.bd.Load(ivAddr, sh.ivName)
	pred := ir.CmpSLE
	if sh.step < 0 {
		pred = ir.CmpSGE
	}
	cmp := c.bd.ICmp(pred, iv, myUB, "omp.cmp")
	c.bd.CondBr(cmp, bodyB, endB)

	c.bd.SetBlock(bodyB)
	c.breaks = append(c.breaks, endB)
	c.continues = append(c.continues, incB)
	err = c.genBlock(st.Loop.Body)
	c.breaks = c.breaks[:len(c.breaks)-1]
	c.continues = c.continues[:len(c.continues)-1]
	if err != nil {
		return err
	}
	c.ensureOpen()
	if c.bd.Cur.Terminator() == nil {
		c.bd.Br(incB)
	}
	c.bd.SetBlock(incB)
	cur := c.bd.Load(ivAddr, sh.ivName+".cur")
	next := c.bd.Bin(ir.OpAdd, cur, ir.I64Const(sh.step), sh.ivName+".next")
	c.bd.Store(next, ivAddr)
	c.bd.Br(condB)

	c.bd.SetBlock(endB)
	// Reductions: combine each private partial into the shared variable
	// with the matching atomic runtime call, then barrier as usual.
	for _, rp := range redPartials {
		pv := c.bd.Load(rp.partial, rp.name+".part")
		combine := c.runtime(omp.AtomicCombineFor(rp.op, irType(rp.ct)))
		c.bd.Call(combine, []ir.Value{rp.sharedAddr, pv}, "")
	}
	c.popScope()
	c.bd.Call(c.runtime(omp.ForStaticFini), []ir.Value{c.gtid}, "")
	if !st.NoWait {
		c.bd.Call(c.runtime(omp.Barrier), []ir.Value{c.gtid}, "")
	}
	return nil
}

// collectIdents gathers every identifier referenced in a statement tree.
func collectIdents(n any, out map[string]bool) {
	switch x := n.(type) {
	case *cast.Block:
		for _, s := range x.Stmts {
			collectIdents(s, out)
		}
	case *cast.Decl:
		collectIdents(x.Init, out)
	case *cast.ExprStmt:
		collectIdents(x.X, out)
	case *cast.If:
		collectIdents(x.Cond, out)
		collectIdents(x.Then, out)
		if x.Else != nil {
			collectIdents(x.Else, out)
		}
	case *cast.For:
		if x.Init != nil {
			collectIdents(x.Init, out)
		}
		collectIdents(x.Cond, out)
		if x.Post != nil {
			collectIdents(x.Post, out)
		}
		collectIdents(x.Body, out)
	case *cast.While:
		collectIdents(x.Cond, out)
		collectIdents(x.Body, out)
	case *cast.DoWhile:
		collectIdents(x.Cond, out)
		collectIdents(x.Body, out)
	case *cast.Return:
		collectIdents(x.X, out)
	case *cast.OmpParallel:
		collectIdents(x.Body, out)
	case *cast.OmpFor:
		collectIdents(x.Loop, out)
	case *cast.OmpParallelFor:
		collectIdents(x.Loop, out)
	case *cast.Ident:
		out[x.Name] = true
	case *cast.Bin:
		collectIdents(x.L, out)
		collectIdents(x.R, out)
	case *cast.Un:
		collectIdents(x.X, out)
	case *cast.Index:
		collectIdents(x.Base, out)
		collectIdents(x.Idx, out)
	case *cast.Call:
		for _, a := range x.Args {
			collectIdents(a, out)
		}
	case *cast.CastE:
		collectIdents(x.X, out)
	case *cast.Ternary:
		collectIdents(x.C, out)
		collectIdents(x.T, out)
		collectIdents(x.F, out)
	case *cast.Assign:
		collectIdents(x.LHS, out)
		collectIdents(x.RHS, out)
	case *cast.IncDec:
		collectIdents(x.X, out)
	case *cast.Paren:
		collectIdents(x.X, out)
	}
}

// collectDecls gathers names declared anywhere inside a statement tree
// (including loop-init declarations).
func collectDecls(n any, out map[string]bool) {
	switch x := n.(type) {
	case *cast.Block:
		for _, s := range x.Stmts {
			collectDecls(s, out)
		}
	case *cast.Decl:
		out[x.Name] = true
	case *cast.If:
		collectDecls(x.Then, out)
		if x.Else != nil {
			collectDecls(x.Else, out)
		}
	case *cast.For:
		if x.Init != nil {
			collectDecls(x.Init, out)
		}
		collectDecls(x.Body, out)
	case *cast.While:
		collectDecls(x.Body, out)
	case *cast.DoWhile:
		collectDecls(x.Body, out)
	case *cast.OmpParallel:
		collectDecls(x.Body, out)
	case *cast.OmpFor:
		collectDecls(x.Loop, out)
	case *cast.OmpParallelFor:
		collectDecls(x.Loop, out)
	}
}

// genOmpForDispatch lowers the dispatch-scheduled worksharing loops —
// "#pragma omp for schedule(dynamic[,chunk])", schedule(guided[,chunk]),
// and schedule(auto): workers pull chunks through
// __kmpc_dispatch_init_8/__kmpc_dispatch_next_8 and iterate each chunk
// with a private induction variable. The runtime picks the pull math
// from the schedule kind constant: fixed chunks for dynamic, decaying
// chunks for guided and for auto, which runs as guided like libomp's.
func (c *compiler) genOmpForDispatch(st *cast.OmpFor, sched int64) error {
	if st.NoWait {
		// The dispatch state is per-construct; without the closing barrier
		// a fast worker could reach the next construct early.
		return c.errf("omp for: schedule(%s) nowait is not supported", st.Schedule)
	}
	sh, err := canonicalOmpLoop(st.Loop)
	if err != nil {
		return c.errf("%v", err)
	}

	initV, ict, err := c.genExpr(sh.init)
	if err != nil {
		return err
	}
	initV = c.convert(initV, ict, cast.LongT)
	boundV, bct, err := c.genExpr(sh.bound)
	if err != nil {
		return err
	}
	boundV = c.convert(boundV, bct, cast.LongT)
	var ubV ir.Value
	switch sh.pred {
	case "<":
		ubV = c.bd.Bin(ir.OpSub, boundV, ir.I64Const(1), "ub")
	case "<=":
		ubV = boundV
	case ">":
		ubV = c.bd.Bin(ir.OpAdd, boundV, ir.I64Const(1), "lb")
	case ">=":
		ubV = boundV
	}
	// The parser rejects explicit nonpositive chunks; an absent chunk
	// defaults to 1 (schedule(auto) carries none — the runtime ignores
	// its chunk argument). A negative chunk reaching this point is a
	// front-end bug, not a program to lower.
	chunk := int64(st.Chunk)
	if chunk < 0 {
		return c.errf("omp for: negative chunk %d survived clause parsing", st.Chunk)
	}
	if chunk == 0 {
		chunk = 1
	}
	c.bd.Call(c.runtime(omp.DispatchInit), []ir.Value{
		c.gtid, ir.I32Const(sched),
		initV, ubV, ir.I64Const(sh.step), ir.I64Const(chunk),
	}, "")

	lower := c.bd.Alloca(ir.I64, "disp.lb")
	upper := c.bd.Alloca(ir.I64, "disp.ub")
	stride := c.bd.Alloca(ir.I64, "disp.stride")
	last := c.bd.Alloca(ir.I64, "disp.lastiter")

	c.pushScope()
	ivAddr := c.bd.Alloca(ir.I64, sh.ivName+".addr")
	c.bd.DbgValue(ivAddr, sh.ivName)
	c.define(sh.ivName, &varInfo{addr: ivAddr, ctype: cast.LongT})

	// Reduction partials (same mechanism as the static path).
	type redPartial struct {
		name       string
		op         string
		ct         cast.Type
		partial    ir.Value
		sharedAddr ir.Value
	}
	var redPartials []redPartial
	for _, red := range st.Reductions {
		vi := c.lookup(red.Var)
		if vi == nil {
			return c.errf("reduction variable %q is not in scope", red.Var)
		}
		it := irType(vi.ctype)
		partial := c.bd.Alloca(it, red.Var+".red")
		c.bd.DbgValue(partial, red.Var)
		var ident ir.Value
		if ir.IsFloatType(it) {
			ident = ir.F64Const(0)
			if red.Op == "*" {
				ident = ir.F64Const(1)
			}
		} else {
			ident = ir.I64Const(0)
			if red.Op == "*" {
				ident = ir.I64Const(1)
			}
		}
		c.bd.Store(ident, partial)
		c.define(red.Var, &varInfo{addr: partial, ctype: vi.ctype})
		redPartials = append(redPartials, redPartial{
			name: red.Var, op: red.Op, ct: vi.ctype,
			partial: partial, sharedAddr: vi.addr,
		})
	}

	headB := c.fn.NewBlock("disp.head")
	preB := c.fn.NewBlock("disp.chunk")
	condB := c.fn.NewBlock("disp.for.cond")
	bodyB := c.fn.NewBlock("disp.for.body")
	incB := c.fn.NewBlock("disp.for.inc")
	endB := c.fn.NewBlock("disp.end")

	c.bd.Br(headB)
	c.bd.SetBlock(headB)
	more := c.bd.Call(c.runtime(omp.DispatchNext),
		[]ir.Value{c.gtid, last, lower, upper, stride}, "disp.more")
	hasWork := c.bd.ICmp(ir.CmpNE, more, ir.I32Const(0), "disp.haswork")
	c.bd.CondBr(hasWork, preB, endB)

	c.bd.SetBlock(preB)
	myLB := c.bd.Load(lower, "disp.mylb")
	myUB := c.bd.Load(upper, "disp.myub")
	c.bd.Store(myLB, ivAddr)
	c.bd.Br(condB)

	c.bd.SetBlock(condB)
	iv := c.bd.Load(ivAddr, sh.ivName)
	pred := ir.CmpSLE
	if sh.step < 0 {
		pred = ir.CmpSGE
	}
	cmp := c.bd.ICmp(pred, iv, myUB, "disp.cmp")
	c.bd.CondBr(cmp, bodyB, headB)

	c.bd.SetBlock(bodyB)
	c.breaks = append(c.breaks, endB)
	c.continues = append(c.continues, incB)
	err = c.genBlock(st.Loop.Body)
	c.breaks = c.breaks[:len(c.breaks)-1]
	c.continues = c.continues[:len(c.continues)-1]
	if err != nil {
		return err
	}
	c.ensureOpen()
	if c.bd.Cur.Terminator() == nil {
		c.bd.Br(incB)
	}
	c.bd.SetBlock(incB)
	cur := c.bd.Load(ivAddr, sh.ivName+".cur")
	next := c.bd.Bin(ir.OpAdd, cur, ir.I64Const(sh.step), sh.ivName+".next")
	c.bd.Store(next, ivAddr)
	c.bd.Br(condB)

	c.bd.SetBlock(endB)
	for _, rp := range redPartials {
		pv := c.bd.Load(rp.partial, rp.name+".part")
		combine := c.runtime(omp.AtomicCombineFor(rp.op, irType(rp.ct)))
		c.bd.Call(combine, []ir.Value{rp.sharedAddr, pv}, "")
	}
	c.popScope()
	c.bd.Call(c.runtime(omp.Barrier), []ir.Value{c.gtid}, "")
	return nil
}
