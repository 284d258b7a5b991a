// Package futurecontract enforces a discipline that keeps callers inside
// the pooled-future recycling contract: a Future returned by Async reads
// its own verdict only until its loop's or step's next-but-one Async —
// afterwards the runtime may recycle the issue state beneath it, and a
// second Wait (or a stored copy consulted later) can observe a NEWER
// issue of the same loop. The analyzer tracks local variables of future
// type (*op2.Future, core.Future, *hpx.Future) through each function
// body in source order, with branch merging and a two-pass loop-body
// walk, and reports:
//
//   - a Wait on a handle that has already definitely been waited
//     (including a Wait inside a loop on a handle defined outside it);
//   - any other use after the first definite Wait — copying the handle,
//     passing it to a call, storing it, or calling Ready/Done on it.
//
// A Wait that only happens on SOME paths (e.g. the idiomatic
// `if fut.Ready() { return fut.Wait() }`) leaves the handle in a "maybe
// waited" state, which is not reported — the contract is about proven
// double consumption, not possible ones.
//
// The packages that IMPLEMENT the recycling machinery — op2hpx/op2,
// internal/core, internal/hpx, internal/dist — are exempt: they
// legitimately touch recycled handles (vending the one wrapper a pooled
// state keeps, releasing pooled states).
package futurecontract

import (
	"go/ast"
	"go/token"
	"go/types"

	"op2hpx/internal/analysis"
)

// Analyzer is the future-recycling-contract checker.
var Analyzer = &analysis.Analyzer{
	Name: "futurecontract",
	Doc:  "flag double-Wait and use-after-Wait on pooled futures",
	Run:  run,
}

// exemptPkgs implement the pooling contract and may touch consumed
// handles.
var exemptPkgs = map[string]bool{
	"op2hpx/op2":           true,
	"op2hpx/internal/core": true,
	"op2hpx/internal/hpx":  true,
	"op2hpx/internal/dist": true,
}

type waitState int

const (
	stFresh  waitState = iota
	stMaybe            // waited on some control-flow paths
	stWaited           // definitely waited
)

func run(pass *analysis.Pass) error {
	if pass.Pkg != nil && exemptPkgs[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			c := &checker{
				pass:     pass,
				reported: map[token.Pos]bool{},
			}
			c.walkBody(fn.Body, map[types.Object]waitState{})
		}
	}
	return nil
}

// isFutureType reports whether t is one of the pooled future types.
func isFutureType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != "Future" {
		return false
	}
	switch obj.Pkg().Path() {
	case "op2hpx/op2", "op2hpx/internal/core", "op2hpx/internal/hpx":
		return true
	}
	return false
}

type checker struct {
	pass     *analysis.Pass
	reported map[token.Pos]bool // one report per source position
}

func (c *checker) reportf(pos token.Pos, format string, args ...any) {
	if !c.reported[pos] {
		c.reported[pos] = true
		c.pass.Reportf(pos, format, args...)
	}
}

// futureObj resolves e to a tracked local future variable.
func (c *checker) futureObj(e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	obj := c.pass.TypesInfo.Uses[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Defs[id]
	}
	if obj == nil {
		return nil
	}
	if _, isVar := obj.(*types.Var); !isVar {
		return nil
	}
	if !isFutureType(obj.Type()) {
		return nil
	}
	return obj
}

func (c *checker) walkBody(b *ast.BlockStmt, st map[types.Object]waitState) {
	c.walkStmts(b.List, st)
}

func (c *checker) walkStmts(list []ast.Stmt, st map[types.Object]waitState) {
	for _, s := range list {
		c.walkStmt(s, st)
	}
}

func cloneState(st map[types.Object]waitState) map[types.Object]waitState {
	out := make(map[types.Object]waitState, len(st))
	for k, v := range st {
		out[k] = v
	}
	return out
}

// merge joins two branch outcomes: both-waited stays waited, anything
// else that waited somewhere becomes maybe.
func merge(dst, a, b map[types.Object]waitState) {
	for k := range dst {
		delete(dst, k)
	}
	seen := map[types.Object]bool{}
	for k := range a {
		seen[k] = true
	}
	for k := range b {
		seen[k] = true
	}
	for k := range seen {
		va, vb := a[k], b[k]
		switch {
		case va == stWaited && vb == stWaited:
			dst[k] = stWaited
		case va == stFresh && vb == stFresh:
			dst[k] = stFresh
		default:
			dst[k] = stMaybe
		}
	}
}

func (c *checker) walkStmt(s ast.Stmt, st map[types.Object]waitState) {
	switch s := s.(type) {
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			c.walkExpr(r, st)
		}
		for i, l := range s.Lhs {
			if obj := c.futureObj(l); obj != nil {
				// (Re)binding the variable to a fresh handle resets it;
				// copying a consumed handle is flagged on the RHS walk.
				st[obj] = stFresh
				_ = i
			}
		}
	case *ast.ExprStmt:
		c.walkExpr(s.X, st)
	case *ast.IfStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		c.walkExpr(s.Cond, st)
		thenSt := cloneState(st)
		c.walkBody(s.Body, thenSt)
		elseSt := cloneState(st)
		if s.Else != nil {
			c.walkStmt(s.Else, elseSt)
		}
		merge(st, thenSt, elseSt)
	case *ast.ForStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		if s.Cond != nil {
			c.walkExpr(s.Cond, st)
		}
		// Two passes: the second sees the first iteration's consumption,
		// catching a Wait on a handle defined outside the loop.
		bodySt := cloneState(st)
		c.walkBody(s.Body, bodySt)
		if s.Post != nil {
			c.walkStmt(s.Post, bodySt)
		}
		c.walkBody(s.Body, bodySt)
		merge(st, st, bodySt)
	case *ast.RangeStmt:
		c.walkExpr(s.X, st)
		bodySt := cloneState(st)
		if s.Key != nil {
			if obj := c.futureObj(s.Key); obj != nil {
				bodySt[obj] = stFresh
			}
		}
		if s.Value != nil {
			if obj := c.futureObj(s.Value); obj != nil {
				bodySt[obj] = stFresh
			}
		}
		c.walkBody(s.Body, bodySt)
		// Range variables rebind each iteration; a second pass only
		// matters for handles defined outside, which keep their state.
		c.walkBody(s.Body, bodySt)
		merge(st, st, bodySt)
	case *ast.BlockStmt:
		c.walkBody(s, st)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			c.walkExpr(r, st)
		}
	case *ast.DeferStmt:
		c.walkExpr(s.Call, st)
	case *ast.GoStmt:
		c.walkExpr(s.Call, st)
	case *ast.SwitchStmt:
		if s.Init != nil {
			c.walkStmt(s.Init, st)
		}
		if s.Tag != nil {
			c.walkExpr(s.Tag, st)
		}
		out := cloneState(st)
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cl.List {
					c.walkExpr(e, st)
				}
				caseSt := cloneState(st)
				c.walkStmts(cl.Body, caseSt)
				merge(out, out, caseSt)
			}
		}
		merge(st, st, out)
	case *ast.SelectStmt:
		out := cloneState(st)
		for _, cc := range s.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				caseSt := cloneState(st)
				if cl.Comm != nil {
					c.walkStmt(cl.Comm, caseSt)
				}
				c.walkStmts(cl.Body, caseSt)
				merge(out, out, caseSt)
			}
		}
		merge(st, st, out)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.walkExpr(v, st)
					}
					for _, name := range vs.Names {
						if obj := c.pass.TypesInfo.Defs[name]; obj != nil && isFutureType(obj.Type()) {
							st[obj] = stFresh
						}
					}
				}
			}
		}
	case *ast.SendStmt:
		c.walkExpr(s.Chan, st)
		c.walkExpr(s.Value, st)
	case *ast.IncDecStmt:
		c.walkExpr(s.X, st)
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, st)
	case *ast.TypeSwitchStmt:
		// Rare around futures; walk linearly.
		ast.Inspect(s, func(n ast.Node) bool {
			if e, ok := n.(*ast.CallExpr); ok {
				c.walkExpr(e, st)
				return false
			}
			return true
		})
	}
}

// walkExpr records consumption and flags uses of consumed handles.
func (c *checker) walkExpr(e ast.Expr, st map[types.Object]waitState) {
	switch e := ast.Unparen(e).(type) {
	case nil:
	case *ast.CallExpr:
		// fut.Wait() / fut.Ready() / fut.Done()
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if obj := c.futureObj(sel.X); obj != nil {
				switch sel.Sel.Name {
				case "Wait":
					switch st[obj] {
					case stWaited:
						c.reportf(e.Pos(), "second Wait on future %q: a pooled future is valid until its first Wait returns, a later Wait may observe a recycled issue", obj.Name())
					default:
						st[obj] = stWaited
					}
				case "Ready", "Done":
					if st[obj] == stWaited {
						c.reportf(e.Pos(), "%s on future %q after its Wait returned: the pooled issue state may already be recycled", sel.Sel.Name, obj.Name())
					}
				}
				for _, a := range e.Args {
					c.walkExpr(a, st)
				}
				return
			}
		}
		c.walkExpr(e.Fun, st)
		for _, a := range e.Args {
			if obj := c.futureObj(a); obj != nil && st[obj] == stWaited {
				c.reportf(a.Pos(), "future %q passed along after its Wait returned: the pooled issue state may already be recycled", obj.Name())
				continue
			}
			c.walkExpr(a, st)
		}
	case *ast.Ident:
		if obj := c.futureObj(e); obj != nil && st[obj] == stWaited {
			c.reportf(e.Pos(), "future %q used after its Wait returned: the pooled issue state may already be recycled", obj.Name())
		}
	case *ast.BinaryExpr:
		c.walkExpr(e.X, st)
		c.walkExpr(e.Y, st)
	case *ast.UnaryExpr:
		c.walkExpr(e.X, st)
	case *ast.StarExpr:
		c.walkExpr(e.X, st)
	case *ast.SelectorExpr:
		c.walkExpr(e.X, st)
	case *ast.IndexExpr:
		c.walkExpr(e.X, st)
		c.walkExpr(e.Index, st)
	case *ast.SliceExpr:
		c.walkExpr(e.X, st)
		c.walkExpr(e.Low, st)
		c.walkExpr(e.High, st)
		c.walkExpr(e.Max, st)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			c.walkExpr(el, st)
		}
	case *ast.KeyValueExpr:
		c.walkExpr(e.Key, st)
		c.walkExpr(e.Value, st)
	case *ast.TypeAssertExpr:
		c.walkExpr(e.X, st)
	case *ast.FuncLit:
		// The closure may run later with whatever state the handles are
		// in; analyze its body against a copy so outer state stays exact.
		inner := cloneState(st)
		c.walkBody(e.Body, inner)
	}
}
