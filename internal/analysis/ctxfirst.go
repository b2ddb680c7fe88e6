package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxPackages are the packages whose exported API sits on the daemon's
// cancellation path: PR 3's degradation ladder can only keep its deadline
// promises if every potentially long-running call accepts a context and
// no library code silently detaches from its caller by minting a fresh
// root context.
var ctxPackages = map[string]bool{
	"matching": true,
	"sched":    true,
	"schedd":   true,
	"runner":   true,
	"gateway":  true,
	"session":  true,
}

// CtxFirst enforces context discipline in the scheduling packages:
// context.Context parameters come first, exported blocking functions must
// take one, and context.Background()/TODO() may appear only behind a
// //lint:allow ctxfirst directive documenting why (a server's one root
// context, cancelled by its Shutdown).
var CtxFirst = &Analyzer{
	Name: "ctxfirst",
	Doc:  "scheduling packages must thread cancellation: ctx first, blocking exports take ctx, no stray context.Background()",
	Run:  runCtxFirst,
}

func runCtxFirst(pass *Pass) {
	if !ctxPackages[pathBase(pass.Pkg.Path)] {
		return
	}
	info := pass.Pkg.Info

	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			obj, ok := info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := obj.Type().(*types.Signature)
			ctxIdx := -1
			for i := 0; i < sig.Params().Len(); i++ {
				if isContextType(sig.Params().At(i).Type()) {
					ctxIdx = i
					break
				}
			}
			if ctxIdx > 0 {
				pass.Reportf(fn.Name.Pos(), "%s takes context.Context as parameter %d; cancellation contexts go first", fn.Name.Name, ctxIdx+1)
			}
			if fn.Name.IsExported() && ctxIdx < 0 && fn.Body != nil {
				if pos, op := firstBlockingOp(info, fn.Body); pos.IsValid() {
					pass.Reportf(fn.Name.Pos(), "exported %s blocks (%s) but takes no context.Context; add one as the first parameter so callers can cancel", fn.Name.Name, op)
				}
			}
		}
	}

	// Library code must not mint root contexts: a fresh Background()
	// detaches the work from the caller's deadline. The documented
	// root contexts carry //lint:allow ctxfirst directives.
	for ident, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
			continue
		}
		if fn.Name() == "Background" || fn.Name() == "TODO" {
			pass.Reportf(ident.Pos(), "context.%s mints a root context and detaches this call from its caller's cancellation; accept a ctx parameter instead", fn.Name())
		}
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// firstBlockingOp finds the first statement in body that can block the
// caller indefinitely: a select without a default clause, a channel send
// or receive, sync.WaitGroup.Wait / sync.Cond.Wait, or time.Sleep.
// Function literals are skipped — work launched in a goroutine blocks
// that goroutine, not the caller — so only the function's own spine
// counts.
func firstBlockingOp(info *types.Info, body *ast.BlockStmt) (token.Pos, string) {
	var pos token.Pos
	var op string
	ast.Inspect(body, func(n ast.Node) bool {
		if pos.IsValid() {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				pos, op = n.Pos(), "select"
				return false
			}
			// A select with a default clause never blocks, and its comm
			// clauses are polled, not waited on — but the clause bodies
			// run normally, so only they are searched.
			for _, c := range n.Body.List {
				if pos.IsValid() {
					break
				}
				cc, ok := c.(*ast.CommClause)
				if !ok {
					continue
				}
				for _, stmt := range cc.Body {
					if p, o := firstBlockingOp(info, &ast.BlockStmt{List: []ast.Stmt{stmt}}); p.IsValid() {
						pos, op = p, o
						break
					}
				}
			}
			return false
		case *ast.SendStmt:
			pos, op = n.Pos(), "channel send"
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pos, op = n.Pos(), "channel receive"
				return false
			}
		case *ast.CallExpr:
			if f := funcObj(info, n); f != nil && f.Pkg() != nil {
				path, name := f.Pkg().Path(), f.Name()
				if (path == "sync" && name == "Wait") || (path == "time" && name == "Sleep") {
					pos, op = n.Pos(), path+"."+name
					return false
				}
			}
		}
		return true
	})
	return pos, op
}
