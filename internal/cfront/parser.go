package cfront

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cast"
)

// ParseC parses a C translation unit into the shared AST.
func ParseC(src string) (*cast.File, error) {
	l, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &cparser{toks: l.toks, defines: l.defines}
	f, err := p.file()
	if err != nil {
		return nil, err
	}
	for name, v := range l.defines {
		f.Defines = append(f.Defines, cast.DefineDecl{Name: name, Value: v})
	}
	return f, nil
}

type cparser struct {
	toks    []tk
	pos     int
	defines map[string]int64
}

// Token reads clamp at the trailing EOF token the lexer always appends,
// so a parse that consumes EOF (truncated input such as "long") still
// reads EOF, and its error reports a line instead of indexing past the
// end.
func (p *cparser) tok() tk  { return p.peek(0) }
func (p *cparser) next() tk { t := p.tok(); p.pos++; return t }
func (p *cparser) peek(n int) tk {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *cparser) errf(format string, args ...any) error {
	return fmt.Errorf("cfront: line %d: %s", p.tok().line, fmt.Sprintf(format, args...))
}

func (p *cparser) isPunct(s string) bool {
	return p.tok().kind == tkPunct && p.tok().text == s
}

func (p *cparser) isIdent(s string) bool {
	return p.tok().kind == tkIdent && p.tok().text == s
}

func (p *cparser) accept(s string) bool {
	if p.isPunct(s) || p.isIdent(s) {
		p.pos++
		return true
	}
	return false
}

func (p *cparser) expect(s string) error {
	if !p.accept(s) {
		return p.errf("expected %q, got %q", s, p.tok().text)
	}
	return nil
}

// isTypeStart reports whether the current token begins a type.
func (p *cparser) isTypeStart() bool {
	t := p.tok()
	if t.kind != tkIdent {
		return false
	}
	switch t.text {
	case "int", "long", "double", "float", "void", "char", "uint64_t", "unsigned", "static", "const":
		return true
	}
	return false
}

func (p *cparser) baseType() (cast.Type, error) {
	for p.isIdent("static") || p.isIdent("const") {
		p.pos++
	}
	t := p.next()
	if t.kind != tkIdent {
		return nil, p.errf("expected type, got %q", t.text)
	}
	switch t.text {
	case "void":
		return cast.VoidT, nil
	case "int":
		return cast.IntT, nil
	case "long":
		p.accept("long") // "long long"
		p.accept("int")
		return cast.LongT, nil
	case "double":
		return cast.DoubleT, nil
	case "float":
		return cast.FloatT, nil
	case "char":
		return cast.CharT, nil
	case "uint64_t":
		return cast.ULongT, nil
	case "unsigned":
		p.accept("long")
		p.accept("int")
		return cast.ULongT, nil
	}
	return nil, p.errf("unknown type %q", t.text)
}

// typeWithStars parses a base type plus pointer stars.
func (p *cparser) typeWithStars() (cast.Type, error) {
	t, err := p.baseType()
	if err != nil {
		return nil, err
	}
	for p.accept("*") {
		t = &cast.PtrT{To: t}
	}
	return t, nil
}

// arraySuffix wraps t in array types for each trailing [N].
func (p *cparser) arraySuffix(t cast.Type) (cast.Type, error) {
	var dims []int
	for p.accept("[") {
		n := p.next()
		if n.kind != tkInt {
			return nil, p.errf("array dimension must be an integer constant, got %q", n.text)
		}
		if err := p.expect("]"); err != nil {
			return nil, err
		}
		dims = append(dims, int(n.i))
	}
	for i := len(dims) - 1; i >= 0; i-- {
		t = &cast.ArrT{N: dims[i], Elem: t}
	}
	return t, nil
}

func (p *cparser) file() (*cast.File, error) {
	f := &cast.File{}
	for p.tok().kind != tkEOF {
		if p.tok().kind == tkPragma {
			// File-scope pragmas (e.g. scop markers) are ignored.
			p.pos++
			continue
		}
		if !p.isTypeStart() {
			return nil, p.errf("expected declaration, got %q", p.tok().text)
		}
		t, err := p.typeWithStars()
		if err != nil {
			return nil, err
		}
		nameTok := p.next()
		if nameTok.kind != tkIdent {
			return nil, p.errf("expected name, got %q", nameTok.text)
		}
		if p.isPunct("(") {
			fn, err := p.funcRest(t, nameTok.text)
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fn)
			continue
		}
		// Global variable(s).
		for {
			vt, err := p.arraySuffix(t)
			if err != nil {
				return nil, err
			}
			v := &cast.VarDecl{T: vt, Name: nameTok.text}
			if p.accept("=") {
				e, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				v.Init = e
			}
			f.Vars = append(f.Vars, v)
			if p.accept(",") {
				nameTok = p.next()
				if nameTok.kind != tkIdent {
					return nil, p.errf("expected name after comma")
				}
				continue
			}
			break
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func (p *cparser) funcRest(ret cast.Type, name string) (*cast.FuncDecl, error) {
	fn := &cast.FuncDecl{Ret: ret, Name: name}
	if err := p.expect("("); err != nil {
		return nil, err
	}
	if p.isIdent("void") && p.peek(1).kind == tkPunct && p.peek(1).text == ")" {
		p.pos++
	}
	for !p.accept(")") {
		if len(fn.Params) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		pt, err := p.baseType()
		if err != nil {
			return nil, err
		}
		restrict := false
		for {
			if p.accept("*") {
				pt = &cast.PtrT{To: pt}
				continue
			}
			if p.accept("restrict") {
				restrict = true
				continue
			}
			break
		}
		pn := p.next()
		if pn.kind != tkIdent {
			return nil, p.errf("expected parameter name, got %q", pn.text)
		}
		pt, err = p.arraySuffix(pt)
		if err != nil {
			return nil, err
		}
		fn.Params = append(fn.Params, cast.Param{T: pt, Name: pn.text, Restrict: restrict})
	}
	if p.accept(";") {
		return fn, nil // declaration only
	}
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *cparser) block() (*cast.Block, error) {
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	b := &cast.Block{}
	for !p.accept("}") {
		if p.tok().kind == tkEOF {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		if s != nil {
			b.Stmts = append(b.Stmts, s)
		}
	}
	return b, nil
}

func (p *cparser) stmt() (cast.Stmt, error) {
	t := p.tok()
	switch {
	case t.kind == tkPragma:
		return p.pragmaStmt()
	case p.isPunct("{"):
		return p.block()
	case p.isPunct(";"):
		p.pos++
		return nil, nil
	case p.isIdent("if"):
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.stmtAsBlock()
		if err != nil {
			return nil, err
		}
		st := &cast.If{Cond: cond, Then: then}
		if p.accept("else") {
			if p.isIdent("if") {
				els, err := p.stmt()
				if err != nil {
					return nil, err
				}
				st.Else = els
			} else {
				els, err := p.stmtAsBlock()
				if err != nil {
					return nil, err
				}
				st.Else = els
			}
		}
		return st, nil
	case p.isIdent("for"):
		return p.forStmt()
	case p.isIdent("while"):
		p.pos++
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.stmtAsBlock()
		if err != nil {
			return nil, err
		}
		return &cast.While{Cond: cond, Body: body}, nil
	case p.isIdent("do"):
		p.pos++
		body, err := p.stmtAsBlock()
		if err != nil {
			return nil, err
		}
		if err := p.expect("while"); err != nil {
			return nil, err
		}
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.expr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		return &cast.DoWhile{Body: body, Cond: cond}, nil
	case p.isIdent("return"):
		p.pos++
		st := &cast.Return{}
		if !p.isPunct(";") {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.X = e
		}
		return st, p.expect(";")
	case p.isIdent("break"):
		p.pos++
		return &cast.Break{}, p.expect(";")
	case p.isIdent("continue"):
		p.pos++
		return &cast.Continue{}, p.expect(";")
	case p.isIdent("goto"):
		p.pos++
		lbl := p.next()
		return &cast.Goto{Label: lbl.text}, p.expect(";")
	case t.kind == tkIdent && p.peek(1).kind == tkPunct && p.peek(1).text == ":" && !keywords[t.text]:
		p.pos += 2
		return &cast.Label{Name: t.text}, nil
	case p.isTypeStart():
		return p.declStmt()
	default:
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		return &cast.ExprStmt{X: e}, p.expect(";")
	}
}

func (p *cparser) stmtAsBlock() (*cast.Block, error) {
	if p.isPunct("{") {
		return p.block()
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	if s == nil {
		return &cast.Block{}, nil
	}
	return &cast.Block{Stmts: []cast.Stmt{s}}, nil
}

func (p *cparser) declStmt() (cast.Stmt, error) {
	t, err := p.typeWithStars()
	if err != nil {
		return nil, err
	}
	b := &cast.Block{}
	for {
		nameTok := p.next()
		if nameTok.kind != tkIdent {
			return nil, p.errf("expected variable name, got %q", nameTok.text)
		}
		vt, err := p.arraySuffix(t)
		if err != nil {
			return nil, err
		}
		d := &cast.Decl{T: vt, Name: nameTok.text}
		if p.accept("=") {
			e, err := p.assignExpr()
			if err != nil {
				return nil, err
			}
			d.Init = e
		}
		b.Stmts = append(b.Stmts, d)
		if !p.accept(",") {
			break
		}
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if len(b.Stmts) == 1 {
		return b.Stmts[0], nil
	}
	return b, nil
}

func (p *cparser) forStmt() (cast.Stmt, error) {
	p.pos++ // for
	if err := p.expect("("); err != nil {
		return nil, err
	}
	var init cast.Stmt
	if !p.isPunct(";") {
		if p.isTypeStart() {
			d, err := p.declStmt() // consumes ';'
			if err != nil {
				return nil, err
			}
			init = d
		} else {
			e, err := p.expr()
			if err != nil {
				return nil, err
			}
			init = &cast.ExprStmt{X: e}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
		}
	} else {
		p.pos++
	}
	var cond cast.Expr
	if !p.isPunct(";") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		cond = e
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	var post cast.Stmt
	if !p.isPunct(")") {
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		post = &cast.ExprStmt{X: e}
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	return &cast.For{Init: init, Cond: cond, Post: post, Body: body}, nil
}

// pragmaStmt parses the OpenMP pragmas the pipeline supports.
func (p *cparser) pragmaStmt() (cast.Stmt, error) {
	text := p.next().text // "omp parallel ..." etc.
	fields := strings.Fields(text)
	if len(fields) == 0 || fields[0] != "omp" {
		return nil, nil // non-OpenMP pragma: ignored
	}
	rest := strings.Join(fields[1:], " ")
	switch {
	case rest == "barrier":
		return &cast.OmpBarrier{}, nil
	case strings.HasPrefix(rest, "parallel for"):
		clauses := strings.TrimPrefix(rest, "parallel for")
		sched, chunk, _, priv, reds, err := p.clauses(clauses)
		if err != nil {
			return nil, err
		}
		loop, err := p.followingFor()
		if err != nil {
			return nil, err
		}
		return &cast.OmpParallelFor{Schedule: sched, Chunk: chunk, Private: priv, Reductions: reds, Loop: loop}, nil
	case strings.HasPrefix(rest, "parallel"):
		clauses := strings.TrimPrefix(rest, "parallel")
		_, _, _, priv, _, err := p.clauses(clauses)
		if err != nil {
			return nil, err
		}
		body, err := p.stmtAsBlock()
		if err != nil {
			return nil, err
		}
		return &cast.OmpParallel{Private: priv, Body: body}, nil
	case strings.HasPrefix(rest, "for"):
		clauses := strings.TrimPrefix(rest, "for")
		sched, chunk, nowait, priv, reds, err := p.clauses(clauses)
		if err != nil {
			return nil, err
		}
		loop, err := p.followingFor()
		if err != nil {
			return nil, err
		}
		return &cast.OmpFor{Schedule: sched, Chunk: chunk, NoWait: nowait, Private: priv, Reductions: reds, Loop: loop}, nil
	}
	return nil, p.errf("unsupported OpenMP pragma %q", text)
}

func (p *cparser) followingFor() (*cast.For, error) {
	if !p.isIdent("for") {
		return nil, p.errf("#pragma omp for must be followed by a for loop, got %q", p.tok().text)
	}
	s, err := p.forStmt()
	if err != nil {
		return nil, err
	}
	loop, ok := s.(*cast.For)
	if !ok {
		return nil, p.errf("loop after omp for pragma is not canonical")
	}
	return loop, nil
}

// clauses parses "schedule(static[,N]) nowait private(a, b)
// reduction(+: s)". Malformed clauses are rejected here, at the source
// boundary, with the offending clause text: unknown schedule kinds,
// nonpositive chunks, a chunk on schedule(auto), and empty variable
// lists all used to slip through to codegen (or the runtime) where the
// diagnostic lost the source context.
func (p *cparser) clauses(s string) (sched string, chunk int, nowait bool, private []string, reds []cast.Reduction, err error) {
	s = strings.TrimSpace(s)
	for s != "" {
		switch {
		case strings.HasPrefix(s, "schedule("):
			end := strings.Index(s, ")")
			if end < 0 {
				return "", 0, false, nil, nil, fmt.Errorf("cfront: unterminated schedule clause")
			}
			body := s[len("schedule("):end]
			clause := s[:end+1]
			parts := strings.Split(body, ",")
			sched = strings.TrimSpace(parts[0])
			switch sched {
			case "static", "dynamic", "guided", "auto":
			default:
				return "", 0, false, nil, nil, fmt.Errorf("cfront: unknown schedule kind in %q (want static, dynamic, guided, or auto)", clause)
			}
			if len(parts) > 1 {
				if sched == "auto" {
					return "", 0, false, nil, nil, fmt.Errorf("cfront: schedule(auto) takes no chunk in %q", clause)
				}
				c, cerr := strconv.Atoi(strings.TrimSpace(parts[1]))
				if cerr != nil {
					return "", 0, false, nil, nil, fmt.Errorf("cfront: bad chunk %q", parts[1])
				}
				if c <= 0 {
					return "", 0, false, nil, nil, fmt.Errorf("cfront: chunk must be positive in %q", clause)
				}
				chunk = c
			}
			s = strings.TrimSpace(s[end+1:])
		case strings.HasPrefix(s, "nowait"):
			nowait = true
			s = strings.TrimSpace(s[len("nowait"):])
		case strings.HasPrefix(s, "private("):
			end := strings.Index(s, ")")
			if end < 0 {
				return "", 0, false, nil, nil, fmt.Errorf("cfront: unterminated private clause")
			}
			clause := s[:end+1]
			names, nerr := splitVarList(s[len("private("):end], clause)
			if nerr != nil {
				return "", 0, false, nil, nil, nerr
			}
			private = append(private, names...)
			s = strings.TrimSpace(s[end+1:])
		case strings.HasPrefix(s, "reduction("):
			end := strings.Index(s, ")")
			if end < 0 {
				return "", 0, false, nil, nil, fmt.Errorf("cfront: unterminated reduction clause")
			}
			body := s[len("reduction("):end]
			clause := s[:end+1]
			colon := strings.Index(body, ":")
			if colon < 0 {
				return "", 0, false, nil, nil, fmt.Errorf("cfront: reduction clause needs op: var")
			}
			op := strings.TrimSpace(body[:colon])
			if op != "+" && op != "*" {
				return "", 0, false, nil, nil, fmt.Errorf("cfront: unsupported reduction operator %q", op)
			}
			names, nerr := splitVarList(body[colon+1:], clause)
			if nerr != nil {
				return "", 0, false, nil, nil, nerr
			}
			for _, n := range names {
				reds = append(reds, cast.Reduction{Op: op, Var: n})
			}
			s = strings.TrimSpace(s[end+1:])
		default:
			return "", 0, false, nil, nil, fmt.Errorf("cfront: unsupported OpenMP clause %q", s)
		}
	}
	return sched, chunk, nowait, private, reds, nil
}

// splitVarList splits a clause's comma-separated variable list,
// rejecting empty lists and empty names ("private()", "reduction(+:)",
// "private(a,,b)") with the offending clause text.
func splitVarList(body, clause string) ([]string, error) {
	if strings.TrimSpace(body) == "" {
		return nil, fmt.Errorf("cfront: empty variable list in %q", clause)
	}
	var names []string
	for _, n := range strings.Split(body, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			return nil, fmt.Errorf("cfront: empty variable name in %q", clause)
		}
		names = append(names, n)
	}
	return names, nil
}
