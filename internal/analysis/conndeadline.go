package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// connDeadlinePackages is the serving tier, where every conn read/write
// answers (or relays) live traffic and an unarmed socket can park a
// handler goroutine forever on a dead peer.
var connDeadlinePackages = map[string]bool{
	"schedd":  true,
	"gateway": true,
	"session": true,
	"serve":   true,
}

const (
	deadlineRead uint8 = 1 << iota
	deadlineWrite
)

// ConnDeadline enforces the serving tier's I/O contract: a Read or Write
// on a net.Conn (or *net.TCPConn / *net.UnixConn) must be dominated by a
// deadline set on the same conn value — SetDeadline arms both directions,
// SetReadDeadline/SetWriteDeadline one each. A call to a helper taking
// the conn whose name mentions "ReadDeadline" arms reads (covering the
// SetReadDeadline test hook), "WriteDeadline" writes, and any other
// "Deadline"/"deadline" both. I/O through a wrapper local built on the
// conn — bufio.NewScanner/NewReader/NewWriter, json.NewEncoder/NewDecoder
// — counts as I/O on the conn: Scan, Read* and Decode read, Encode,
// Write* and Flush write. The check is a must-dataflow to each I/O call:
// armed on every CFG path, i.e. dominated by arming statements.
// *net.UDPConn is exempt — the ingest sockets intentionally block until
// Close tears them down, and datagram sends do not wait for a peer.
var ConnDeadline = &Analyzer{
	Name: "conndeadline",
	Doc:  "net.Conn I/O in schedd/gateway/session/serve must be dominated by a deadline on the same conn",
	Run:  runConnDeadline,
}

func runConnDeadline(pass *Pass) {
	if !connDeadlinePackages[pathBase(pass.Pkg.Path)] {
		return
	}
	info := pass.Pkg.Info
	wrappers := connWrappers(info, pass.Pkg.Files)
	funcBodies(pass.Pkg, func(body *ast.BlockStmt) {
		g := buildCFG(body)
		g.run(flowFuncs{
			union: false, // the deadline must be armed on every path
			step: func(st flowState, el cfgElem, report reportFn) {
				connDeadlineStep(info, wrappers, st, el, report)
			},
		}, pass.Reportf)
	})
}

func connDeadlineStep(info *types.Info, wrappers map[types.Object]types.Object, st flowState, el cfgElem, report reportFn) {
	// checkIO reports I/O in direction dir on conn obj that no deadline
	// has armed; via names the wrapper call it went through, if any.
	checkIO := func(pos token.Pos, obj types.Object, dir uint8, via string) {
		if dir == 0 || st[obj]&dir != 0 {
			return
		}
		op, setter := "Read", "SetReadDeadline"
		if dir == deadlineWrite {
			op, setter = "Write", "SetWriteDeadline"
		}
		report2(report, pos, "%s on %s%s is not dominated by SetDeadline/%s on every path; an unarmed %s can park this goroutine forever on a dead peer",
			op, objName(obj), via, setter, strings.ToLower(op))
	}
	inspectElem(el, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if obj := connObject(info, sel.X); obj != nil {
				switch sel.Sel.Name {
				case "SetDeadline":
					st[obj] |= deadlineRead | deadlineWrite
				case "SetReadDeadline":
					st[obj] |= deadlineRead
				case "SetWriteDeadline":
					st[obj] |= deadlineWrite
				case "Read":
					checkIO(call.Pos(), obj, deadlineRead, "")
				case "Write":
					checkIO(call.Pos(), obj, deadlineWrite, "")
				}
				return true
			}
			if w := exprObject(info, sel.X); wrappers[w] != nil {
				checkIO(call.Pos(), wrappers[w], wrapperIO(sel.Sel.Name), " via "+w.Name()+"."+sel.Sel.Name)
				return true
			}
		}
		// A helper whose name mentions Deadline arms any conn it takes, in
		// the direction its name gives.
		if bits := helperArms(calleeName(call)); bits != 0 {
			for _, a := range call.Args {
				if obj := connObject(info, a); obj != nil {
					st[obj] |= bits
				}
			}
		}
		return true
	})
}

// helperArms is the deadline-helper heuristic: which directions a call to
// the named function arms on the conns it takes.
func helperArms(name string) uint8 {
	switch {
	case strings.Contains(name, "ReadDeadline"):
		return deadlineRead
	case strings.Contains(name, "WriteDeadline"):
		return deadlineWrite
	case strings.Contains(name, "Deadline"), strings.Contains(name, "deadline"):
		return deadlineRead | deadlineWrite
	}
	return 0
}

// wrapperIO classifies a method called on a conn wrapper as a read, a
// write, or neither (0: Buffer, Text, Err, ...).
func wrapperIO(method string) uint8 {
	switch {
	case method == "Scan", method == "Decode", strings.HasPrefix(method, "Read"):
		return deadlineRead
	case method == "Encode", method == "Flush", strings.HasPrefix(method, "Write"):
		return deadlineWrite
	}
	return 0
}

// connWrapperCtors wrap a conn in a reader or writer whose methods count
// as I/O on the conn.
var connWrapperCtors = map[string]bool{
	"bufio.NewScanner": true, "bufio.NewReader": true, "bufio.NewWriter": true,
	"encoding/json.NewEncoder": true, "encoding/json.NewDecoder": true,
}

// connWrappers maps every local the package builds by passing a tracked
// conn to one of connWrapperCtors to that conn.
func connWrappers(info *types.Info, files []*ast.File) map[types.Object]types.Object {
	wrappers := make(map[types.Object]types.Object)
	record := func(lhs, rhs ast.Expr) {
		id, isIdent := lhs.(*ast.Ident)
		call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
		if !isIdent || !isCall || len(call.Args) != 1 {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return
		}
		if fn, ok := info.Uses[sel.Sel].(*types.Func); !ok || fn.Pkg() == nil || !connWrapperCtors[fn.Pkg().Path()+"."+fn.Name()] {
			return
		}
		if conn, w := connObject(info, call.Args[0]), exprObject(info, id); conn != nil && w != nil {
			wrappers[w] = conn
		}
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) == len(n.Rhs) {
					for i := range n.Lhs {
						record(n.Lhs[i], n.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(n.Names) == len(n.Values) {
					for i := range n.Names {
						record(n.Names[i], n.Values[i])
					}
				}
			}
			return true
		})
	}
	return wrappers
}

// calleeName is the syntactic name of a call target, for the deadline-
// helper heuristic.
func calleeName(call *ast.CallExpr) string {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// connObject resolves an expression to a tracked conn variable: static
// type net.Conn, *net.TCPConn, or *net.UnixConn.
func connObject(info *types.Info, e ast.Expr) types.Object {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Type == nil || !isTrackedConnType(tv.Type) {
		return nil
	}
	return exprObject(info, e)
}

func isTrackedConnType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	o := named.Obj()
	if o.Pkg() == nil || o.Pkg().Path() != "net" {
		return false
	}
	switch o.Name() {
	case "Conn", "TCPConn", "UnixConn":
		return true
	}
	return false
}
