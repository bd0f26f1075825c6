package cfront

import (
	"fmt"

	"repro/internal/cast"
	"repro/internal/ir"
	"repro/internal/omp"
	"repro/internal/telemetry"
)

// compile lowers a parsed C file to an IR module. Every scalar local and
// parameter is stack-allocated with a dbg.value declaration naming its
// source variable, the pattern mem2reg later rewrites into per-value
// debug intrinsics.
//
// Type model (documented deviation from C, consistent across the whole
// pipeline): all integer types map to i64 and float maps to double; this
// is the LP64 subset PolyBench exercises, and it eliminates conversion
// noise that would otherwise dominate decompiled output.
func compile(file *cast.File, name string) (*ir.Module, error) {
	c := &compiler{
		mod:   ir.NewModule(name),
		file:  file,
		decls: map[string]*ir.Function{},
	}
	if err := c.compile(); err != nil {
		return nil, err
	}
	if err := c.mod.Verify(); err != nil {
		return nil, fmt.Errorf("cfront: generated invalid IR: %w", err)
	}
	return c.mod, nil
}

// CompileSource parses and compiles C source text in one step. The
// lex/parse and IR-generation stages are recorded as spans on tc (nil
// disables).
func CompileSource(src, name string, tc *telemetry.Ctx) (*ir.Module, error) {
	sp := tc.StartSpan(telemetry.CatStage, "cfront-parse", name)
	f, err := ParseC(src)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tc.StartSpan(telemetry.CatStage, "cfront-codegen", name)
	m, err := compile(f, name)
	sp.End()
	return m, err
}

type varInfo struct {
	addr  ir.Value
	ctype cast.Type
}

type compiler struct {
	mod   *ir.Module
	file  *cast.File
	decls map[string]*ir.Function

	fn     *ir.Function
	bd     *ir.Builder
	scopes []map[string]*varInfo

	breaks    []*ir.Block
	continues []*ir.Block

	// OpenMP state.
	gtid       ir.Value // i32 thread id inside an outlined region
	outlineSeq int
}

func (c *compiler) errf(format string, args ...any) error {
	where := ""
	if c.fn != nil {
		where = " in " + c.fn.Nam
	}
	return fmt.Errorf("cfront%s: %s", where, fmt.Sprintf(format, args...))
}

// irType maps a C type to its IR representation.
func irType(t cast.Type) ir.Type {
	switch tt := t.(type) {
	case *cast.Prim:
		switch tt.Kind {
		case cast.Void:
			return ir.Void
		case cast.Float, cast.Double:
			return ir.F64
		case cast.Bool:
			return ir.I1
		default:
			return ir.I64
		}
	case *cast.PtrT:
		return ir.Ptr(irType(tt.To))
	case *cast.ArrT:
		return ir.Array(tt.N, irType(tt.Elem))
	}
	return ir.I64
}

// decay converts an array parameter type to its pointer form.
func decay(t cast.Type) cast.Type {
	if a, ok := t.(*cast.ArrT); ok {
		return &cast.PtrT{To: a.Elem}
	}
	return t
}

func isFloatCT(t cast.Type) bool {
	p, ok := t.(*cast.Prim)
	return ok && (p.Kind == cast.Float || p.Kind == cast.Double)
}

func isBoolCT(t cast.Type) bool {
	p, ok := t.(*cast.Prim)
	return ok && p.Kind == cast.Bool
}

func isPtrCT(t cast.Type) bool {
	_, ok := t.(*cast.PtrT)
	return ok
}

func (c *compiler) compile() error {
	for _, v := range c.file.Vars {
		g := &ir.Global{Nam: v.Name, Elem: irType(v.T)}
		if v.Init != nil {
			switch e := v.Init.(type) {
			case *cast.IntLit:
				if ir.IsFloatType(g.Elem) {
					g.Init = ir.F64Const(float64(e.V))
				} else {
					g.Init = ir.I64Const(e.V)
				}
			case *cast.FloatLit:
				g.Init = ir.F64Const(e.V)
			default:
				return c.errf("global %s: only literal initializers supported", v.Name)
			}
		}
		c.mod.AddGlobal(g)
	}
	// Declarations first so calls resolve.
	for _, fn := range c.file.Funcs {
		sig := &ir.FuncType{Ret: irType(fn.Ret)}
		var names []string
		for _, p := range fn.Params {
			sig.Params = append(sig.Params, irType(decay(p.T)))
			names = append(names, p.Name)
		}
		existing := c.mod.FuncByName(fn.Name)
		if existing == nil {
			f := ir.NewFunction(fn.Name, sig, names...)
			for i, p := range f.Params {
				p.SourceName = fn.Params[i].Name
			}
			c.mod.AddFunc(f)
		}
	}
	for _, fn := range c.file.Funcs {
		if fn.Body == nil {
			continue
		}
		if err := c.genFunc(fn); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) pushScope() { c.scopes = append(c.scopes, map[string]*varInfo{}) }
func (c *compiler) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

func (c *compiler) define(name string, vi *varInfo) {
	c.scopes[len(c.scopes)-1][name] = vi
}

func (c *compiler) lookup(name string) *varInfo {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if vi, ok := c.scopes[i][name]; ok {
			return vi
		}
	}
	return nil
}

func (c *compiler) genFunc(fn *cast.FuncDecl) error {
	f := c.mod.FuncByName(fn.Name)
	c.fn = f
	c.bd = ir.NewBuilder(f)
	c.scopes = nil
	c.gtid = nil
	c.pushScope()
	defer c.popScope()

	entry := f.NewBlock("entry")
	c.bd.SetBlock(entry)

	// Parameters are stored to named allocas with debug declarations
	// (the Clang -O0 pattern).
	for i, p := range fn.Params {
		ct := decay(p.T)
		addr := c.bd.Alloca(irType(ct), p.Name+".addr")
		c.bd.DbgValue(addr, p.Name)
		c.bd.Store(f.Params[i], addr)
		c.define(p.Name, &varInfo{addr: addr, ctype: ct})
	}
	if err := c.genBlock(fn.Body); err != nil {
		return err
	}
	// Implicit return.
	if c.bd.Cur.Terminator() == nil {
		if ir.IsVoid(f.Sig.Ret) {
			c.bd.Ret(nil)
		} else if ir.IsFloatType(f.Sig.Ret) {
			c.bd.Ret(ir.F64Const(0))
		} else {
			c.bd.Ret(ir.I64Const(0))
		}
	}
	return nil
}

// ensureOpen makes sure the builder has an unterminated block to append
// to (statements after return/break target an unreachable block that
// SimplifyCFG later removes).
func (c *compiler) ensureOpen() {
	if c.bd.Cur.Terminator() != nil {
		c.bd.SetBlock(c.fn.NewBlock("dead"))
	}
}

func (c *compiler) genBlock(b *cast.Block) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		if err := c.genStmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *compiler) genStmt(s cast.Stmt) error {
	c.ensureOpen()
	switch st := s.(type) {
	case *cast.Decl:
		it := irType(st.T)
		addr := c.bd.Alloca(it, st.Name+".addr")
		if _, isArr := st.T.(*cast.ArrT); !isArr {
			c.bd.DbgValue(addr, st.Name)
		}
		c.define(st.Name, &varInfo{addr: addr, ctype: st.T})
		if st.Init != nil {
			v, ct, err := c.genExpr(st.Init)
			if err != nil {
				return err
			}
			c.bd.Store(c.convert(v, ct, st.T), addr)
		}
		return nil

	case *cast.ExprStmt:
		_, _, err := c.genExpr(st.X)
		return err

	case *cast.Return:
		if st.X != nil {
			v, ct, err := c.genExpr(st.X)
			if err != nil {
				return err
			}
			want := c.fn.Sig.Ret
			if ir.IsFloatType(want) {
				c.bd.Ret(c.convert(v, ct, cast.DoubleT))
			} else if ir.IsVoid(want) {
				c.bd.Ret(nil)
			} else {
				c.bd.Ret(c.convert(v, ct, cast.LongT))
			}
		} else {
			c.bd.Ret(nil)
		}
		return nil

	case *cast.Block:
		return c.genBlock(st)

	case *cast.If:
		cond, ct, err := c.genExpr(st.Cond)
		if err != nil {
			return err
		}
		cv := c.asCond(cond, ct)
		thenB := c.fn.NewBlock("if.then")
		endB := c.fn.NewBlock("if.end")
		elseB := endB
		if st.Else != nil {
			elseB = c.fn.NewBlock("if.else")
		}
		c.bd.CondBr(cv, thenB, elseB)
		c.bd.SetBlock(thenB)
		if err := c.genBlock(st.Then); err != nil {
			return err
		}
		if c.bd.Cur.Terminator() == nil {
			c.bd.Br(endB)
		}
		if st.Else != nil {
			c.bd.SetBlock(elseB)
			if err := c.genStmt(st.Else); err != nil {
				return err
			}
			c.ensureOpen()
			if c.bd.Cur.Terminator() == nil {
				c.bd.Br(endB)
			}
		}
		c.bd.SetBlock(endB)
		return nil

	case *cast.For:
		c.pushScope()
		defer c.popScope()
		if st.Init != nil {
			if err := c.genStmt(st.Init); err != nil {
				return err
			}
		}
		condB := c.fn.NewBlock("for.cond")
		bodyB := c.fn.NewBlock("for.body")
		incB := c.fn.NewBlock("for.inc")
		endB := c.fn.NewBlock("for.end")
		c.bd.Br(condB)
		c.bd.SetBlock(condB)
		if st.Cond != nil {
			cond, ct, err := c.genExpr(st.Cond)
			if err != nil {
				return err
			}
			c.bd.CondBr(c.asCond(cond, ct), bodyB, endB)
		} else {
			c.bd.Br(bodyB)
		}
		c.bd.SetBlock(bodyB)
		c.breaks = append(c.breaks, endB)
		c.continues = append(c.continues, incB)
		err := c.genBlock(st.Body)
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
		if st.Post != nil {
			if err := c.genStmt(st.Post); err != nil {
				return err
			}
		}
		c.bd.Br(condB)
		c.bd.SetBlock(endB)
		return nil

	case *cast.While:
		condB := c.fn.NewBlock("while.cond")
		bodyB := c.fn.NewBlock("while.body")
		endB := c.fn.NewBlock("while.end")
		c.bd.Br(condB)
		c.bd.SetBlock(condB)
		cond, ct, err := c.genExpr(st.Cond)
		if err != nil {
			return err
		}
		c.bd.CondBr(c.asCond(cond, ct), bodyB, endB)
		c.bd.SetBlock(bodyB)
		c.breaks = append(c.breaks, endB)
		c.continues = append(c.continues, condB)
		err = c.genBlock(st.Body)
		c.breaks = c.breaks[:len(c.breaks)-1]
		c.continues = c.continues[:len(c.continues)-1]
		if err != nil {
			return err
		}
		c.ensureOpen()
		if c.bd.Cur.Terminator() == nil {
			c.bd.Br(condB)
		}
		c.bd.SetBlock(endB)
		return nil

	case *cast.DoWhile:
		bodyB := c.fn.NewBlock("do.body")
		condB := c.fn.NewBlock("do.cond")
		endB := c.fn.NewBlock("do.end")
		c.bd.Br(bodyB)
		c.bd.SetBlock(bodyB)
		c.breaks = append(c.breaks, endB)
		c.continues = append(c.continues, condB)
		err := c.genBlock(st.Body)
		c.breaks = c.breaks[:len(c.breaks)-1]
		c.continues = c.continues[:len(c.continues)-1]
		if err != nil {
			return err
		}
		c.ensureOpen()
		if c.bd.Cur.Terminator() == nil {
			c.bd.Br(condB)
		}
		c.bd.SetBlock(condB)
		cond, ct, err := c.genExpr(st.Cond)
		if err != nil {
			return err
		}
		c.bd.CondBr(c.asCond(cond, ct), bodyB, endB)
		c.bd.SetBlock(endB)
		return nil

	case *cast.Break:
		if len(c.breaks) == 0 {
			return c.errf("break outside loop")
		}
		c.bd.Br(c.breaks[len(c.breaks)-1])
		return nil

	case *cast.Continue:
		if len(c.continues) == 0 {
			return c.errf("continue outside loop")
		}
		c.bd.Br(c.continues[len(c.continues)-1])
		return nil

	case *cast.OmpParallel:
		return c.genOmpParallel(st.Body, st.Private)

	case *cast.OmpParallelFor:
		inner := &cast.OmpFor{
			Schedule: st.Schedule, Chunk: st.Chunk, Private: st.Private,
			Reductions: st.Reductions,
			Loop:       st.Loop,
		}
		return c.genOmpParallel(&cast.Block{Stmts: []cast.Stmt{inner}}, nil)

	case *cast.OmpFor:
		if c.gtid == nil {
			// An orphaned omp for (outside any parallel region) runs
			// sequentially, per the OpenMP spec with one implicit thread.
			return c.genStmt(st.Loop)
		}
		return c.genOmpFor(st)

	case *cast.OmpBarrier:
		if c.gtid != nil {
			c.bd.Call(c.runtime(omp.Barrier), []ir.Value{c.gtid}, "")
		}
		return nil

	case *cast.Goto, *cast.Label:
		return c.errf("goto/label not supported by the frontend (decompiler output avoids them)")
	}
	return c.errf("unsupported statement %T", s)
}
