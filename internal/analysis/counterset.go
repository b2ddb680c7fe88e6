package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// CounterSet flags by-value transfer of structs that hold synchronisation
// state. Copying a sync.Mutex forks the lock; copying a counter set whose
// struct holds a []atomic.Int64 copies the slice header, so two
// "independent" counter sets silently share (or, after growth, silently
// stop sharing) the same atomics — either way drop/shed accounting stops
// meaning what it says. Unlike go vet's copylocks, this also treats slices
// and arrays of sync/atomic values as carriers, which is exactly that
// counter-set shape.
var CounterSet = &Analyzer{
	Name: "counterset",
	Doc:  "mutex- or atomic-holding structs (counter sets et al.) must move by pointer, never by value",
	Run:  runCounterSet,
}

func runCounterSet(pass *Pass) {
	info := pass.Pkg.Info
	seen := make(map[types.Type]bool)

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
			if recv := sig.Recv(); recv != nil {
				if w := syncWitness(recv.Type(), seen); w != "" {
					pass.Reportf(fn.Recv.Pos(), "value receiver of %s copies %s; use a pointer receiver", typeLabel(recv.Type()), w)
				}
			}
			for i := 0; i < sig.Params().Len(); i++ {
				p := sig.Params().At(i)
				if w := syncWitness(p.Type(), seen); w != "" {
					pass.Reportf(paramPos(fn, i), "parameter %s passes %s by value, copying %s; pass a pointer", p.Name(), typeLabel(p.Type()), w)
				}
			}
			for i := 0; i < sig.Results().Len(); i++ {
				r := sig.Results().At(i)
				if w := syncWitness(r.Type(), seen); w != "" {
					pass.Reportf(fn.Type.Results.Pos(), "result %d returns %s by value, copying %s; return a pointer", i+1, typeLabel(r.Type()), w)
				}
			}
		}
	}

	pass.inspect(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if !copiesValue(rhs) {
					continue
				}
				// Discarding to the blank identifier evaluates the value
				// but keeps no copy alive.
				if len(n.Lhs) == len(n.Rhs) {
					if id, ok := n.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						continue
					}
				}
				if t := exprType(info, rhs); t != nil {
					if w := syncWitness(t, seen); w != "" {
						pass.Reportf(rhs.Pos(), "assignment copies %s by value (it holds %s); take a pointer instead", typeLabel(t), w)
					}
				}
			}
		case *ast.CallExpr:
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				return true // conversions don't copy lock semantics away
			}
			for _, arg := range n.Args {
				if !copiesValue(arg) {
					continue
				}
				if t := exprType(info, arg); t != nil {
					if w := syncWitness(t, seen); w != "" {
						pass.Reportf(arg.Pos(), "call passes %s by value (it holds %s); pass a pointer", typeLabel(t), w)
					}
				}
			}
		case *ast.RangeStmt:
			if n.Value == nil {
				return true
			}
			// The := form defines the value ident, so its type lives in
			// Defs rather than the expression-type map.
			var t types.Type
			if id, ok := n.Value.(*ast.Ident); ok {
				if obj := info.Defs[id]; obj != nil {
					t = obj.Type()
				} else if obj := info.Uses[id]; obj != nil {
					t = obj.Type()
				}
			} else {
				t = exprType(info, n.Value)
			}
			if t != nil {
				if w := syncWitness(t, seen); w != "" {
					pass.Reportf(n.Value.Pos(), "range copies %s elements by value (they hold %s); range over indices instead", typeLabel(t), w)
				}
			}
		}
		return true
	})
}

// copiesValue reports whether evaluating e yields a copy of an existing
// value (reading a variable, field, element, or dereference) as opposed
// to constructing a fresh one or passing a pointer.
func copiesValue(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name != "nil"
	case *ast.SelectorExpr, *ast.StarExpr, *ast.IndexExpr:
		return true
	}
	return false
}

func exprType(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// syncWitness returns the name of a sync/atomic type reachable from t by
// value (through struct fields, embedded structs, and arrays), or "" if t
// is safe to copy. Pointers, maps, channels, interfaces, and function
// values stop the search: copying those shares, not forks. Slices count
// only when reached through a struct field — copying a bare slice copies
// no elements, but copying a struct whose field is a slice of atomics
// (the counter-set shape) yields two values that silently share the same
// counters.
func syncWitness(t types.Type, seen map[types.Type]bool) string {
	return witnessIn(t, seen, false)
}

func witnessIn(t types.Type, seen map[types.Type]bool, viaStruct bool) string {
	if seen[t] {
		return ""
	}
	seen[t] = true
	defer delete(seen, t)

	switch t := t.(type) {
	case *types.Named:
		if obj := t.Obj(); obj.Pkg() != nil {
			switch obj.Pkg().Path() {
			case "sync", "sync/atomic":
				if _, isStruct := t.Underlying().(*types.Struct); isStruct {
					return obj.Pkg().Name() + "." + obj.Name()
				}
				return ""
			}
		}
		return witnessIn(t.Underlying(), seen, viaStruct)
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if w := witnessIn(t.Field(i).Type(), seen, true); w != "" {
				return w
			}
		}
	case *types.Array:
		return witnessIn(t.Elem(), seen, viaStruct)
	case *types.Slice:
		if viaStruct {
			return witnessIn(t.Elem(), seen, viaStruct)
		}
	case *types.Alias:
		return witnessIn(types.Unalias(t), seen, viaStruct)
	}
	return ""
}

// typeLabel renders a type compactly for findings.
func typeLabel(t types.Type) string {
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}

// paramPos locates the i-th parameter in the declaration for precise
// findings; parameters can share one field (a, b int).
func paramPos(fn *ast.FuncDecl, i int) (pos token.Pos) {
	n := 0
	for _, field := range fn.Type.Params.List {
		names := len(field.Names)
		if names == 0 {
			names = 1
		}
		if i < n+names {
			if len(field.Names) > 0 {
				return field.Names[i-n].Pos()
			}
			return field.Pos()
		}
		n += names
	}
	return fn.Type.Params.Pos()
}
